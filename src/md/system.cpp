#include "md/system.hpp"

#include "md/units.hpp"
#include "support/error.hpp"

namespace scmd {

ParticleSystem::ParticleSystem(const Box& box, std::vector<double> type_masses)
    : box_(box), mass_by_type_(std::move(type_masses)) {
  SCMD_REQUIRE(!mass_by_type_.empty(), "need at least one species");
  for (double m : mass_by_type_)
    SCMD_REQUIRE(m > 0.0, "masses must be positive");
}

int ParticleSystem::add_atom(const Vec3& r, const Vec3& v, int type) {
  SCMD_REQUIRE(type >= 0 && type < num_types(), "unknown species");
  pos_.push_back(box_.wrap(r));
  vel_.push_back(v);
  force_.push_back({});
  type_.push_back(type);
  return num_atoms() - 1;
}

void ParticleSystem::zero_forces() {
  for (Vec3& f : force_) f = {};
}

void ParticleSystem::wrap_positions() {
  for (Vec3& r : pos_) r = box_.wrap(r);
}

double ParticleSystem::kinetic_energy() const {
  double ke = 0.0;
  for (int i = 0; i < num_atoms(); ++i)
    ke += 0.5 * mass_of_atom(i) * vel_[static_cast<std::size_t>(i)].norm2();
  return ke;
}

double ParticleSystem::temperature() const {
  if (num_atoms() == 0) return 0.0;
  return 2.0 * kinetic_energy() / (3.0 * num_atoms() * units::kBoltzmann);
}

Vec3 ParticleSystem::total_momentum() const {
  Vec3 p;
  for (int i = 0; i < num_atoms(); ++i)
    p += vel_[static_cast<std::size_t>(i)] * mass_of_atom(i);
  return p;
}

void ParticleSystem::zero_momentum() {
  if (num_atoms() == 0) return;
  double total_mass = 0.0;
  for (int i = 0; i < num_atoms(); ++i) total_mass += mass_of_atom(i);
  const Vec3 v_cm = total_momentum() / total_mass;
  for (Vec3& v : vel_) v -= v_cm;
}

}  // namespace scmd
