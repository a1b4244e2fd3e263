#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

/// \file fault.hpp
/// Fault injection for the simulated cluster: kill chosen ranks at chosen
/// points to exercise crash-safe checkpoint/resume, the collective-
/// correctness layer's peer-exit detection, and the `orbit::resilience`
/// supervisor's detect→teardown→resume loop.
///
/// Two kinds of plans coexist:
///
/// **One-shot plans** (`FaultPlan`) name one victim rank and one trigger —
/// a 0-based training step (fired by the trainer mid-step via
/// `on_train_step`), a 0-based per-rank collective index (fired inside the
/// comm layer's collective issue via `on_collective`, i.e. genuinely mid-
/// collective), or a checkpoint save of a given step (fired inside
/// `save_sharded_checkpoint` via `on_checkpoint_save`, i.e. mid-save with
/// some peers' files already written). The first firing disarms the plan,
/// so an in-process resume (second `run_spmd` in the same test) is not
/// killed again.
///
/// **Chaos schedules** (`ChaosSchedule`) describe repeated/probabilistic
/// kills for multi-failure recovery tests: kill every k steps, or kill
/// with probability p per step, with a fixed victim or a uniformly drawn
/// one. Every decision is a pure deterministic function of (seed, step),
/// so all ranks agree on each step's verdict without shared RNG state and
/// a rerun with the same seed kills the same ranks at the same steps. Each
/// trigger step fires **at most once per armed schedule** — a resumed run
/// re-executing a killed step is not killed there again (the replacement
/// node does not fail deterministically at the same step), which is what
/// lets a supervised run make progress through the schedule.
///
/// The kill is a `RankKilledError` thrown on the victim's thread: the rank
/// unwinds exactly like a crashed process, its peers fail fast through
/// peer-exit detection, and `run_spmd` rethrows the `RankKilledError` as
/// the root cause (rank errors take precedence over checker-raised desync
/// errors).
///
/// Environment seeding, read when the first hook runs with no programmatic
/// plan armed (programmatic `set_plan`/`set_chaos` take precedence):
///  * `ORBIT_FAULT_RANK=<r>` + `ORBIT_FAULT_STEP=<n>` arm a one-shot
///    step-triggered plan (both must be set; setting only one is an error).
///  * `ORBIT_CHAOS_EVERY=<k>` and/or `ORBIT_CHAOS_PROB=<p>` arm a chaos
///    schedule; the victim is `ORBIT_CHAOS_RANK=<r>` or a uniform draw
///    over `ORBIT_CHAOS_WORLD=<n>` ranks (one of the two is required),
///    seeded by `ORBIT_CHAOS_SEED=<s>` (default 0), capped by
///    `ORBIT_CHAOS_MAX_KILLS=<m>` (default unlimited), and optionally
///    deferred by `ORBIT_CHAOS_BEGIN=<b>` (no firing before step b).
/// All values are parsed strictly: non-numeric text, trailing garbage, or
/// out-of-range values (negative ranks/steps, probabilities outside
/// [0, 1]) raise a `std::runtime_error` naming the variable and the bad
/// value instead of being silently ignored or truncated.

namespace orbit::comm::fault {

/// Thrown on the victim rank's thread when its trigger fires.
class RankKilledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FaultPlan {
  int rank = -1;                    ///< world rank to kill
  std::int64_t at_step = -1;        ///< 0-based training step, or -1
  std::int64_t at_collective = -1;  ///< 0-based per-rank collective, or -1
  std::int64_t at_save_step = -1;   ///< kill during the save of this step, or -1
};

/// Repeated/probabilistic kill schedule. At least one trigger
/// (`every_steps` > 0 or `per_step_probability` > 0) and a victim source
/// (`victim_rank` >= 0 or `world_size` >= 1) are required; `set_chaos`
/// rejects anything else.
struct ChaosSchedule {
  /// Kill at steps k, 2k, 3k, ... (0 disables the periodic trigger).
  std::int64_t every_steps = 0;
  /// Independent Bernoulli kill chance per step, in [0, 1].
  double per_step_probability = 0.0;
  /// Fixed victim world rank; -1 draws a victim uniformly per firing.
  int victim_rank = -1;
  /// Rank count for uniform victim draws (required when victim_rank < 0).
  int world_size = 0;
  /// Seed of the deterministic (seed, step) -> decision hash.
  std::uint64_t seed = 0;
  /// Total kill budget across the schedule's lifetime; -1 = unlimited.
  std::int64_t max_kills = -1;
  /// First step eligible to fire: steps < begin_step never trigger. Lets a
  /// soak run cleanly to a known committed generation before the failure
  /// storm starts (mid-soak capacity loss).
  std::int64_t begin_step = 0;
};

/// Arm a one-shot plan (replaces any previous plan, resets the per-rank
/// collective counters).
void set_plan(const FaultPlan& plan);

/// Arm a chaos schedule (replaces any previous schedule, clears its
/// fired-step memory and kill count). Throws std::invalid_argument when
/// the schedule has no trigger, no victim source, or an out-of-range
/// probability.
void set_chaos(const ChaosSchedule& schedule);

/// Disarm the one-shot plan and reset collective counters. Leaves any
/// chaos schedule armed.
void clear_plan();

/// Disarm the chaos schedule and forget its fired steps and kill count.
void clear_chaos();

/// The armed one-shot plan, if any (after env seeding).
std::optional<FaultPlan> plan();

/// The armed chaos schedule, if any (after env seeding).
std::optional<ChaosSchedule> chaos();

/// Kills fired by the armed chaos schedule so far.
std::int64_t chaos_kill_count();

/// Pure decision query: the world rank the armed schedule would kill at
/// `step`, ignoring fired-step memory and the kill budget. Empty when no
/// schedule is armed or the step does not trigger. Deterministic in
/// (schedule, step) — tests use it to assert reruns kill identically.
std::optional<int> chaos_victim(std::int64_t step);

/// Attempt boundary for supervised retry loops: resets the per-rank
/// collective counters (a relaunched job issues its collectives from
/// index 0 again, like a fresh process) without touching the one-shot
/// plan, the chaos schedule, or the schedule's fired-step memory.
void begin_attempt();

/// Drop any armed plans and re-read the ORBIT_FAULT_*/ORBIT_CHAOS_*
/// environment immediately (instead of lazily at the next hook). Throws
/// std::runtime_error on malformed values. Primarily for tests of the
/// strict env parser.
void reseed_from_env();

/// Trainer hook: `rank` is executing 0-based step `step`. Throws
/// RankKilledError when the one-shot plan (disarming it) or the chaos
/// schedule (consuming that step's firing) matches.
void on_train_step(int rank, std::int64_t step);

/// Comm hook, called by every collective's issue: `rank` is
/// issuing its next collective. Throws RankKilledError (and disarms) when
/// the armed plan's `at_collective` matches this rank's running count.
void on_collective(int rank);

/// Checkpoint hook, called by the sharded save path: `rank` is saving the
/// generation of 0-based step `step`. Throws RankKilledError (and
/// disarms) when the armed plan's `at_save_step` matches — i.e. mid-save,
/// after some peers may already have written their files but before the
/// generation commits.
void on_checkpoint_save(int rank, std::int64_t step);

}  // namespace orbit::comm::fault
