// Geographic coordinates and great-circle distance.
#pragma once

namespace eden::geo {

// Mean Earth radius: the sphere every distance in EDEN is measured on.
inline constexpr double kEarthRadiusKm = 6371.0088;

struct GeoPoint {
  double lat{0};  // degrees, [-90, 90]
  double lon{0};  // degrees, [-180, 180)

  bool operator==(const GeoPoint&) const = default;
};

// Great-circle distance in kilometres (haversine, mean Earth radius).
[[nodiscard]] double haversine_km(const GeoPoint& a, const GeoPoint& b);

// cos(latitude) exactly as haversine_km computes it.
[[nodiscard]] double cos_lat(const GeoPoint& p);

// haversine_km with both latitude cosines precomputed by cos_lat(), for
// callers that measure from a point many times: bitwise-equal to
// haversine_km(a, b).
[[nodiscard]] double haversine_km(const GeoPoint& a, const GeoPoint& b,
                                  double cos_lat_a, double cos_lat_b);

// Convenience: distance in miles (the paper quotes miles).
[[nodiscard]] double distance_miles(const GeoPoint& a, const GeoPoint& b);

// A point as a unit vector from the Earth's center. The squared chord
// between two of them is a trig-free, monotone proxy for their
// great-circle distance: chord^2 = (2 sin(angle / 2))^2.
struct UnitVector {
  double x{0}, y{0}, z{0};
};

[[nodiscard]] UnitVector unit_vector(const GeoPoint& p);

[[nodiscard]] inline double chord2(const UnitVector& a, const UnitVector& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double dz = a.z - b.z;
  return dx * dx + dy * dy + dz * dz;
}

}  // namespace eden::geo
