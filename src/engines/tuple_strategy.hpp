#pragma once

/// \file tuple_strategy.hpp
/// Pattern-based force strategy: UCP enumeration with either the
/// shift-collapse (SC-MD) or full-shell (FS-MD) computation pattern for
/// every n-body term of the field.
///
/// Besides the per-step enumeration (compute), the strategy implements
/// the two halves of the persistent tuple-list cache
/// (docs/TUPLECACHE.md): compute_build enumerates once at the inflated
/// cutoff rcut + skin and records every accepted tuple into a
/// TupleListCache while evaluating the exact-rcut subset; compute_replay
/// re-evaluates the recorded lists with exact-rcut filtering and no
/// search at all.
///
/// All three paths evaluate tuples through one dispatch point — the
/// BoundKernels table resolved at construction (docs/KERNELS.md), which
/// routes each arity to a batched SIMD-friendly kernel when the field is
/// specialized and to the scalar reference loop otherwise.  Serial and
/// rank engines both funnel through here, so they share the kernels
/// automatically.

#include <vector>

#include "engines/strategy.hpp"
#include "support/aligned.hpp"
#include "support/thread_safety.hpp"
#include "tuples/kernels/kernels.hpp"
#include "tuples/tuple_list.hpp"
#include "tuples/ucp.hpp"

namespace scmd {

/// SC-MD / FS-MD force computation (see strategy.hpp).
class TupleStrategy final : public ForceStrategy {
 public:
  TupleStrategy(const ForceField& field, PatternKind kind,
                bool measure_force_set, int reach = 1,
                bool shared_prefix = false);

  std::string name() const override;
  bool needs_grid(int n) const override;
  HaloSpec halo(int n) const override;
  HaloSpec root_reach(int n) const override;
  double min_cell_size(int n, double rcut) const override;

  int reach() const { return reach_; }

  /// Split enumeration over home-cell z-slabs across this many threads,
  /// with per-thread force buffers reduced deterministically.
  void set_num_threads(int num_threads) override;
  int num_threads() const { return num_threads_; }

  /// Re-resolve the kernel table under a different selection policy
  /// (kScalar forces the reference loops everywhere).  The default at
  /// construction honors the SCMD_KERNELS environment variable.  Not
  /// thread-safe against concurrent compute calls.
  void set_kernel_mode(kernels::KernelMode mode);

  /// The kernel table bound to the construction-time field (for
  /// tests/benches asserting which arities are specialized).
  const kernels::BoundKernels& bound_kernels() const { return kernels_; }

  double compute(const ForceField& field, const DomainSet& domains,
                 ForceAccum& forces, EngineCounters& counters) const override;

  /// Tuple-cache build pass: enumerate every term at rcut(n) + skin,
  /// record the accepted tuples into `cache` (lists are reset here), and
  /// evaluate the subset whose consecutive pairs pass the exact rcut(n).
  /// Domains must be binned on grids sized by min_cell_size(n,
  /// rcut(n) + skin).  The caller marks the cache built (it owns the
  /// displacement reference).
  double compute_build(const ForceField& field, const DomainSet& domains,
                       double skin, TupleListCache& cache, ForceAccum& forces,
                       EngineCounters& counters) const;

  /// Tuple-cache replay pass: re-evaluate the cached lists (slot
  /// positions must be refreshed first) with exact-rcut filtering.
  /// `forces.f[n]` must be sized to the list's slot count; threads split
  /// contiguous tuple blocks.
  double compute_replay(const ForceField& field, const TupleListCache& cache,
                        ForceAccum& forces, EngineCounters& counters) const;

  /// The compiled pattern used for tuple length n (for tests/benches).
  const CompiledPattern& compiled(int n) const;

 private:
  /// Mutex-guarded free list of force scratch buffers, reused across
  /// calls so the threaded paths don't allocate num_atoms-sized arrays
  /// every step.  Buffers are 64-byte aligned for the batched kernels'
  /// vector-width accesses.  The pool is shared across rank threads (the
  /// strategy instance is); it is touched once per term per thread,
  /// never inside tuple loops.
  ///
  /// Ownership contract: a checked-out buffer is exclusively the
  /// caller's until checked back in — the lock covers only the free
  /// list, never the buffers, so a buffer must not be touched after
  /// checkin (the oversubscribed-replay test in
  /// tests/check/checked_md_test.cpp pins this under contention).
  class ScratchPool {
   public:
    using Buf = std::vector<Vec3, AlignedAllocator<Vec3, 64>>;

    /// A zeroed buffer of `size` (recycled allocation when available).
    Buf checkout(std::size_t size);
    void checkin(Buf&& buf);

   private:
    Mutex mu_;
    std::vector<Buf> free_ SCMD_GUARDED_BY(mu_);
  };

  /// The kernel table for `field`: the construction-bound table when the
  /// fields match, else a table freshly bound into `storage` (an engine
  /// passing a different field instance than the one the strategy was
  /// built for still evaluates correctly, just without the cached bind).
  const kernels::BoundKernels& bound_for(const ForceField& field,
                                         kernels::BoundKernels& storage) const;

  /// Threading harness shared by the enumeration paths: split the
  /// home-cell z-slab range over threads, hand each part a force buffer
  /// and its own counters, and reduce in part order (deterministic for a
  /// fixed thread count).  `part_fn(part, z0, z1, fd, tc, evals)`
  /// returns the part's energy; a part reporting zero evals must leave
  /// its buffer untouched (its O(N) reduce is skipped).
  template <class PartFn>
  double run_parts(const CellDomain& dom, std::vector<Vec3>& f,
                   EngineCounters& counters, int n, PartFn&& part_fn) const;

  double replay_term(const kernels::BoundKernels& kern, const TupleList& list,
                     double rcut, std::vector<Vec3>& f,
                     EngineCounters& counters, int n) const;

  PatternKind kind_;
  bool measure_force_set_;
  int reach_;
  bool shared_prefix_;
  int num_threads_ = 1;
  int max_n_;
  std::array<bool, kMaxTupleLen + 1> active_{};
  std::array<CompiledPattern, kMaxTupleLen + 1> compiled_{};
  std::array<HaloSpec, kMaxTupleLen + 1> halo_{};
  kernels::KernelMode kernel_mode_ = kernels::KernelMode::kAuto;
  kernels::BoundKernels kernels_;
  mutable ScratchPool scratch_;
};

}  // namespace scmd
