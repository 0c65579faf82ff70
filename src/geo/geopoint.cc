#include "geo/geopoint.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace eden::geo {
namespace {
constexpr double kKmPerMile = 1.609344;

double radians(double deg) { return deg * std::numbers::pi / 180.0; }
}  // namespace

double cos_lat(const GeoPoint& p) { return std::cos(radians(p.lat)); }

double haversine_km(const GeoPoint& a, const GeoPoint& b) {
  return haversine_km(a, b, cos_lat(a), cos_lat(b));
}

double haversine_km(const GeoPoint& a, const GeoPoint& b, double cos_lat_a,
                    double cos_lat_b) {
  const double dlat = radians(b.lat - a.lat);
  const double dlon = radians(b.lon - a.lon);
  const double s = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   cos_lat_a * cos_lat_b * std::sin(dlon / 2) *
                       std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(s)));
}

double distance_miles(const GeoPoint& a, const GeoPoint& b) {
  return haversine_km(a, b) / kKmPerMile;
}

UnitVector unit_vector(const GeoPoint& p) {
  const double lat = radians(p.lat);
  const double lon = radians(p.lon);
  const double c = std::cos(lat);
  return {c * std::cos(lon), c * std::sin(lon), std::sin(lat)};
}

}  // namespace eden::geo
