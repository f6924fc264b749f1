#pragma once

/// \file system.hpp
/// Global particle state for MD: positions, velocities, forces, species.
///
/// Structure-of-arrays layout; the cell/tuple machinery views positions by
/// span and accumulates forces back by global atom id.

#include <cstdint>
#include <span>
#include <vector>

#include "geom/box.hpp"
#include "geom/vec3.hpp"

namespace scmd {

/// N-atom state in a periodic box.
class ParticleSystem {
 public:
  ParticleSystem() = default;

  /// Construct with a box and per-type masses (indexed by species id).
  ParticleSystem(const Box& box, std::vector<double> type_masses);

  const Box& box() const { return box_; }
  int num_atoms() const { return static_cast<int>(pos_.size()); }
  int num_types() const { return static_cast<int>(mass_by_type_.size()); }

  /// Append one atom; returns its global id.
  int add_atom(const Vec3& r, const Vec3& v, int type);

  std::span<const Vec3> positions() const { return pos_; }
  std::span<Vec3> positions() { return pos_; }
  std::span<const Vec3> velocities() const { return vel_; }
  std::span<Vec3> velocities() { return vel_; }
  std::span<const Vec3> forces() const { return force_; }
  std::span<Vec3> forces() { return force_; }
  std::span<const int> types() const { return type_; }

  double mass_of_type(int type) const { return mass_by_type_[type]; }
  double mass_of_atom(int i) const { return mass_by_type_[type_[i]]; }

  void zero_forces();

  /// Wrap all positions into the primary box image.
  void wrap_positions();

  /// Kinetic energy ½Σmv².
  double kinetic_energy() const;

  /// Instantaneous temperature from equipartition (3N degrees of freedom).
  double temperature() const;

  /// Net momentum Σmv (drift diagnostic).
  Vec3 total_momentum() const;

  /// Remove center-of-mass velocity.
  void zero_momentum();

 private:
  Box box_;
  std::vector<Vec3> pos_, vel_, force_;
  std::vector<int> type_;
  std::vector<double> mass_by_type_;
};

}  // namespace scmd
