// Euclidean network coordinates.
//
// GroupCast peers carry a network coordinate in their identification tuple
// <IP, port, coordinate, capacity> (Section 3.3) and estimate inter-peer
// latency from coordinate distance.  The paper assigns them with GNP [1]
// (coords/gnp.h), which embeds hosts into a low-dimensional Euclidean
// space.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <ostream>

namespace groupcast::coords {

/// Dimensionality of the embedding space.  GNP's evaluation found 5–7
/// dimensions sufficient for Internet latencies; we use 5.
inline constexpr std::size_t kDims = 5;

/// A point in the embedding space, in "milliseconds" units so that
/// Euclidean distance approximates one-way latency directly.
class Coord {
 public:
  constexpr Coord() : v_{} {}
  explicit Coord(const std::array<double, kDims>& v) : v_(v) {}

  double& operator[](std::size_t i) { return v_[i]; }
  double operator[](std::size_t i) const { return v_[i]; }

  /// Euclidean distance to another coordinate (estimated latency, ms).
  /// Inline: the host cache evaluates it once per cached entry per join.
  double distance_to(const Coord& other) const {
    double acc = 0.0;
    for (std::size_t i = 0; i < kDims; ++i) {
      const double d = v_[i] - other.v_[i];
      acc += d * d;
    }
    return std::sqrt(acc);
  }

  /// Euclidean norm.
  double magnitude() const;

  Coord& operator+=(const Coord& other);
  Coord& operator-=(const Coord& other);
  Coord& operator*=(double k);
  friend Coord operator+(Coord a, const Coord& b) { return a += b; }
  friend Coord operator-(Coord a, const Coord& b) { return a -= b; }
  friend Coord operator*(Coord a, double k) { return a *= k; }

  friend bool operator==(const Coord&, const Coord&) = default;

  friend std::ostream& operator<<(std::ostream& os, const Coord& c);

 private:
  std::array<double, kDims> v_;
};

}  // namespace groupcast::coords
