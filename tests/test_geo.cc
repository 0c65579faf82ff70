// Unit + property tests for geographic distance and the GeoHash codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.h"
#include "geo/geohash.h"
#include "geo/geopoint.h"

namespace eden::geo {
namespace {

TEST(Haversine, ZeroDistanceSamePoint) {
  const GeoPoint p{44.98, -93.26};
  EXPECT_NEAR(haversine_km(p, p), 0.0, 1e-9);
}

TEST(Haversine, KnownCityPairs) {
  const GeoPoint msp{44.9778, -93.2650};   // Minneapolis
  const GeoPoint chi{41.8781, -87.6298};   // Chicago
  const GeoPoint lon{51.5074, -0.1278};    // London
  const GeoPoint nyc{40.7128, -74.0060};   // New York
  EXPECT_NEAR(haversine_km(msp, chi), 571.0, 15.0);
  EXPECT_NEAR(haversine_km(nyc, lon), 5570.0, 60.0);
}

TEST(Haversine, Symmetric) {
  const GeoPoint a{10, 20};
  const GeoPoint b{-30, 150};
  EXPECT_DOUBLE_EQ(haversine_km(a, b), haversine_km(b, a));
}

TEST(Haversine, CachedCosineOverloadIsBitwiseEqual) {
  // Selection caches cos(lat) per registry entry; scores stay bit-identical
  // only if the overload runs exactly the plain arithmetic.
  eden::Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const GeoPoint a{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
    const GeoPoint b = (i % 2 == 0)
                           ? GeoPoint{rng.uniform(-90.0, 90.0),
                                      rng.uniform(-180.0, 180.0)}
                           : GeoPoint{a.lat + rng.uniform(-0.5, 0.5),
                                      a.lon + rng.uniform(-0.5, 0.5)};
    EXPECT_EQ(haversine_km(a, b), haversine_km(a, b, cos_lat(a), cos_lat(b)))
        << i;
  }
}

TEST(Haversine, ChordOfUnitVectorsMatchesDistance) {
  // chord^2 = (2 sin(angle / 2))^2: the registry's trig-free prefilter
  // relies on this identity holding to ~1e-15 (its margin is far wider).
  eden::Rng rng(43);
  for (int i = 0; i < 2000; ++i) {
    const GeoPoint a{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
    const GeoPoint b{std::clamp(a.lat + rng.uniform(-2.0, 2.0), -90.0, 90.0),
                     a.lon + rng.uniform(-2.0, 2.0)};
    const double half_angle = haversine_km(a, b) / kEarthRadiusKm / 2.0;
    const double expected = 4.0 * std::sin(half_angle) * std::sin(half_angle);
    EXPECT_NEAR(chord2(unit_vector(a), unit_vector(b)), expected,
                1e-12 * expected + 1e-15)
        << i;
  }
  // Across the antimeridian the vectors are ~0.22 km apart, not a full
  // turn: chord^2 ~ (0.002 deg * cos(10 deg) in radians)^2 ~ 1.2e-9.
  const GeoPoint east{10.0, 179.999};
  const GeoPoint west{10.0, -179.999};
  EXPECT_LT(chord2(unit_vector(east), unit_vector(west)), 2e-9);
}

TEST(DistanceMiles, ConvertsFromKm) {
  const GeoPoint a{44.9778, -93.2650};
  const GeoPoint b{44.9778, -92.9};
  EXPECT_NEAR(distance_miles(a, b), haversine_km(a, b) / 1.609344, 1e-9);
}

TEST(Geohash, KnownTestVector) {
  // Canonical example from the geohash literature.
  EXPECT_EQ(geohash_encode({42.605, -5.603}, 5), "ezs42");
  const auto center = geohash_decode_center("ezs42");
  ASSERT_TRUE(center.has_value());
  EXPECT_NEAR(center->lat, 42.605, 0.03);
  EXPECT_NEAR(center->lon, -5.603, 0.03);
}

TEST(Geohash, MinneapolisPrefix) {
  const std::string h = geohash_encode({44.9778, -93.2650}, 6);
  EXPECT_EQ(h.substr(0, 4), "9zvx");
}

TEST(Geohash, DecodeRejectsInvalid) {
  EXPECT_FALSE(geohash_decode("").has_value());
  EXPECT_FALSE(geohash_decode("abc!").has_value());
  EXPECT_FALSE(geohash_decode("aaaaaaaaaaaaaaaa").has_value());  // too long
  // 'a', 'i', 'l', 'o' are not in the geohash alphabet.
  EXPECT_FALSE(geohash_decode("9zvxa").has_value());
}

TEST(Geohash, PrecisionClamped) {
  EXPECT_EQ(geohash_encode({0, 0}, 0).size(), 1u);
  EXPECT_EQ(geohash_encode({0, 0}, 99).size(), 12u);
}

TEST(Geohash, DecodeBoxContainsEncodedPoint) {
  const GeoPoint p{44.9778, -93.2650};
  for (int precision = 1; precision <= 12; ++precision) {
    const auto box = geohash_decode(geohash_encode(p, precision));
    ASSERT_TRUE(box.has_value());
    EXPECT_TRUE(box->contains(p)) << "precision " << precision;
  }
}

TEST(Geohash, LongerPrefixSharedByCloserPoints) {
  const GeoPoint user{44.9778, -93.2650};
  const std::string user_hash = geohash_encode(user, 7);
  const std::string near_hash = geohash_encode({44.9800, -93.2700}, 7);
  const std::string far_hash = geohash_encode({41.8781, -87.6298}, 7);
  EXPECT_GT(common_prefix_len(user_hash, near_hash),
            common_prefix_len(user_hash, far_hash));
}

TEST(Geohash, CommonPrefixLen) {
  EXPECT_EQ(common_prefix_len("9zvxvf", "9zvxvf"), 6);
  EXPECT_EQ(common_prefix_len("9zvxvf", "9zvy"), 3);
  EXPECT_EQ(common_prefix_len("abc", ""), 0);
  EXPECT_EQ(common_prefix_len("", ""), 0);
}

TEST(Geohash, NeighborsAreAdjacent) {
  const std::string h = geohash_encode({44.9778, -93.2650}, 6);
  const auto box = geohash_decode(h);
  ASSERT_TRUE(box.has_value());
  const auto north = geohash_neighbor(h, Direction::kNorth);
  ASSERT_TRUE(north.has_value());
  const auto nbox = geohash_decode(*north);
  ASSERT_TRUE(nbox.has_value());
  EXPECT_NEAR(nbox->min_lat, box->max_lat, 1e-9);
  EXPECT_NEAR(nbox->min_lon, box->min_lon, 1e-9);
}

TEST(Geohash, EightDistinctNeighborsAwayFromPoles) {
  const std::string h = geohash_encode({44.9778, -93.2650}, 6);
  const auto neighbors = geohash_neighbors(h);
  for (const auto& n : neighbors) {
    EXPECT_EQ(n.size(), 6u);
    EXPECT_NE(n, h);
  }
}

TEST(Geohash, NeighborWrapsLongitude) {
  const std::string h = geohash_encode({10.0, 179.999}, 5);
  const auto east = geohash_neighbor(h, Direction::kEast);
  ASSERT_TRUE(east.has_value());
  const auto center = geohash_decode_center(*east);
  ASSERT_TRUE(center.has_value());
  EXPECT_LT(center->lon, 0.0);  // crossed the antimeridian
}

TEST(Geohash, CellWidthShrinksWithPrecision) {
  for (int p = 1; p < 12; ++p) {
    EXPECT_GT(cell_width_km(p), cell_width_km(p + 1));
  }
  // Precision 6 cells are roughly 1.2 km wide x ~0.6 km tall.
  EXPECT_NEAR(cell_width_km(6), 1.2, 0.3);
}

TEST(Geohash, PrecisionForRadius) {
  // A chosen precision's cell must be at least as wide as the radius.
  for (const double radius : {0.5, 2.0, 20.0, 150.0, 1000.0}) {
    const int p = precision_for_radius_km(radius);
    EXPECT_GE(cell_width_km(p), radius);
    if (p < 12) {
      EXPECT_LT(cell_width_km(p + 1), radius);
    }
  }
}

TEST(Geohash, DecodeRejectsEveryByteOutsideAlphabet) {
  // Every byte: 'a', 'i', 'l', 'o', uppercase, NUL and 0x80-0xFF among the
  // rejected ones, alone and after a valid prefix.
  const std::string alphabet = "0123456789bcdefghjkmnpqrstuvwxyz";
  int accepted = 0;
  for (int byte = 0; byte < 256; ++byte) {
    const std::string c(1, static_cast<char>(byte));
    const bool valid = alphabet.find(c) != std::string::npos;
    accepted += valid ? 1 : 0;
    EXPECT_EQ(geohash_decode(c).has_value(), valid) << byte;
    EXPECT_EQ(geohash_decode("9zvx" + c).has_value(), valid) << byte;
  }
  EXPECT_EQ(accepted, 32);
  // Round trips are unchanged: every two-character cell re-encodes from its
  // center, and digit order matches the alphabet (west-to-east, then
  // south-to-north interleaving).
  for (const char hi : alphabet) {
    for (const char lo : alphabet) {
      const std::string hash{hi, lo};
      const auto box = geohash_decode(hash);
      ASSERT_TRUE(box.has_value()) << hash;
      EXPECT_EQ(geohash_encode(box->center(), 2), hash);
    }
  }
  const auto expect_box = [](const std::string& hash, const GeoBox& want) {
    const GeoBox got = *geohash_decode(hash);
    EXPECT_EQ(got.min_lat, want.min_lat) << hash;
    EXPECT_EQ(got.max_lat, want.max_lat) << hash;
    EXPECT_EQ(got.min_lon, want.min_lon) << hash;
    EXPECT_EQ(got.max_lon, want.max_lon) << hash;
  };
  expect_box("0", GeoBox{-90, -45, -180, -135});
  expect_box("z", GeoBox{45, 90, 135, 180});
}

// Property: encode/decode round trip keeps the point inside the cell and
// the cell center within half a cell diagonal, across random points and
// precisions.
class GeohashRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(GeohashRoundTrip, RandomPoints) {
  const int precision = GetParam();
  eden::Rng rng(1000 + precision);
  for (int i = 0; i < 500; ++i) {
    const GeoPoint p{rng.uniform(-89.9, 89.9), rng.uniform(-180.0, 180.0)};
    const std::string h = geohash_encode(p, precision);
    ASSERT_EQ(h.size(), static_cast<std::size_t>(precision));
    const auto box = geohash_decode(h);
    ASSERT_TRUE(box.has_value());
    EXPECT_TRUE(box->contains(p));
    // Re-encoding the center lands in the same cell.
    EXPECT_EQ(geohash_encode(box->center(), precision), h);
  }
}

INSTANTIATE_TEST_SUITE_P(Precisions, GeohashRoundTrip,
                         ::testing::Values(1, 2, 4, 6, 8, 10, 12));

}  // namespace
}  // namespace eden::geo
