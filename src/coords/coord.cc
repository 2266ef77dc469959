#include "coords/coord.h"

#include <cmath>

namespace groupcast::coords {

double Coord::magnitude() const {
  double acc = 0.0;
  for (double x : v_) acc += x * x;
  return std::sqrt(acc);
}

Coord& Coord::operator+=(const Coord& other) {
  for (std::size_t i = 0; i < kDims; ++i) v_[i] += other.v_[i];
  return *this;
}

Coord& Coord::operator-=(const Coord& other) {
  for (std::size_t i = 0; i < kDims; ++i) v_[i] -= other.v_[i];
  return *this;
}

Coord& Coord::operator*=(double k) {
  for (auto& x : v_) x *= k;
  return *this;
}

std::ostream& operator<<(std::ostream& os, const Coord& c) {
  os << '(';
  for (std::size_t i = 0; i < kDims; ++i) {
    if (i) os << ", ";
    os << c[i];
  }
  return os << ')';
}

}  // namespace groupcast::coords
