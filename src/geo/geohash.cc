#include "geo/geohash.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

namespace eden::geo {
namespace {

constexpr const char* kBase32 = "0123456789bcdefghjkmnpqrstuvwxyz";

// Byte -> base-32 digit, -1 for every byte outside the alphabet.
constexpr std::array<std::int8_t, 256> kBase32Index = [] {
  std::array<std::int8_t, 256> table{};
  table.fill(-1);
  for (int i = 0; i < 32; ++i) {
    table[static_cast<unsigned char>(kBase32[i])] = static_cast<std::int8_t>(i);
  }
  return table;
}();

int base32_index(char c) { return kBase32Index[static_cast<unsigned char>(c)]; }

double wrap_lon(double lon) {
  while (lon >= 180.0) lon -= 360.0;
  while (lon < -180.0) lon += 360.0;
  return lon;
}

}  // namespace

std::string geohash_encode(const GeoPoint& p, int precision) {
  precision = std::clamp(precision, 1, 12);
  double lat_lo = -90, lat_hi = 90;
  double lon_lo = -180, lon_hi = 180;
  std::string hash;
  hash.reserve(static_cast<std::size_t>(precision));
  bool even_bit = true;  // even bits encode longitude
  int bit = 0;
  int value = 0;
  while (static_cast<int>(hash.size()) < precision) {
    if (even_bit) {
      const double mid = (lon_lo + lon_hi) / 2;
      if (p.lon >= mid) {
        value = value * 2 + 1;
        lon_lo = mid;
      } else {
        value *= 2;
        lon_hi = mid;
      }
    } else {
      const double mid = (lat_lo + lat_hi) / 2;
      if (p.lat >= mid) {
        value = value * 2 + 1;
        lat_lo = mid;
      } else {
        value *= 2;
        lat_hi = mid;
      }
    }
    even_bit = !even_bit;
    if (++bit == 5) {
      hash += kBase32[value];
      bit = 0;
      value = 0;
    }
  }
  return hash;
}

std::optional<GeoBox> geohash_decode(const std::string& hash) {
  if (hash.empty() || hash.size() > 12) return std::nullopt;
  GeoBox box{-90, 90, -180, 180};
  bool even_bit = true;
  for (char c : hash) {
    const int idx = base32_index(c);
    if (idx < 0) return std::nullopt;
    for (int bit = 4; bit >= 0; --bit) {
      const int b = (idx >> bit) & 1;
      if (even_bit) {
        const double mid = (box.min_lon + box.max_lon) / 2;
        (b ? box.min_lon : box.max_lon) = mid;
      } else {
        const double mid = (box.min_lat + box.max_lat) / 2;
        (b ? box.min_lat : box.max_lat) = mid;
      }
      even_bit = !even_bit;
    }
  }
  return box;
}

std::optional<GeoPoint> geohash_decode_center(const std::string& hash) {
  const auto box = geohash_decode(hash);
  if (!box) return std::nullopt;
  return box->center();
}

std::optional<std::string> geohash_neighbor(const std::string& hash, Direction dir) {
  const auto box = geohash_decode(hash);
  if (!box) return std::nullopt;
  const double lat_step = box->max_lat - box->min_lat;
  const double lon_step = box->max_lon - box->min_lon;
  GeoPoint c = box->center();
  switch (dir) {
    case Direction::kNorth: c.lat += lat_step; break;
    case Direction::kSouth: c.lat -= lat_step; break;
    case Direction::kEast: c.lon += lon_step; break;
    case Direction::kWest: c.lon -= lon_step; break;
  }
  // Clamp at the poles (stay in the same cell), wrap in longitude.
  if (c.lat > 90.0 || c.lat < -90.0) c = box->center();
  c.lon = wrap_lon(c.lon);
  return geohash_encode(c, static_cast<int>(hash.size()));
}

std::array<std::string, 8> geohash_neighbors(const std::string& hash) {
  std::array<std::string, 8> out{};
  const auto n = geohash_neighbor(hash, Direction::kNorth);
  const auto s = geohash_neighbor(hash, Direction::kSouth);
  const auto e = geohash_neighbor(hash, Direction::kEast);
  const auto w = geohash_neighbor(hash, Direction::kWest);
  if (!n || !s || !e || !w) return out;
  out[0] = *n;
  out[1] = *s;
  out[2] = *e;
  out[3] = *w;
  out[4] = geohash_neighbor(*n, Direction::kEast).value_or("");
  out[5] = geohash_neighbor(*n, Direction::kWest).value_or("");
  out[6] = geohash_neighbor(*s, Direction::kEast).value_or("");
  out[7] = geohash_neighbor(*s, Direction::kWest).value_or("");
  return out;
}

int common_prefix_len(const std::string& a, const std::string& b) {
  const std::size_t limit = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < limit && a[i] == b[i]) ++i;
  return static_cast<int>(i);
}

double cell_width_km(int precision) {
  // Longitude span halves every even bit; each character is 5 bits, so a
  // precision-p hash has ceil(5p/2) longitude bits over 360 degrees.
  precision = std::clamp(precision, 1, 12);
  const int lon_bits = (5 * precision + 1) / 2;
  const double deg = 360.0 / std::pow(2.0, lon_bits);
  constexpr double kKmPerDegreeAtEquator = 111.32;
  return deg * kKmPerDegreeAtEquator;
}

int precision_for_radius_km(double radius_km) {
  for (int p = 12; p >= 1; --p) {
    if (cell_width_km(p) >= radius_km) return p;
  }
  return 1;
}

}  // namespace eden::geo
