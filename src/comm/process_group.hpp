#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/check.hpp"
#include "tensor/tensor.hpp"

/// \file process_group.hpp
/// Collective communication over a group of simulated ranks.
///
/// This mirrors the RCCL/NCCL process-group model the paper trains with:
/// Hybrid-STOP's three orthogonal axes (TP, FSDP, DDP — Fig. 4) are each a
/// set of process groups, and every data movement in the training engines
/// goes through the collectives below.
///
/// Contract (same as MPI/NCCL): collectives are *group-collective* — every
/// member rank must call the same operation in the same order with
/// compatible arguments. The simulated implementation moves real bytes
/// between rank heaps through shared staging pointers, so the distributed
/// engines are verified by actual data movement, not by analogy.
///
/// There is one collective engine: every op is an *issue* (take the
/// group's next ticket, publish fingerprint and staging pointer) and a
/// *completion* (wait for every member's issue, move the data, wait for
/// every member to finish reading). A blocking collective issues and
/// completes before returning; its `*_async` twin returns a `CommHandle`
/// in between. Both forms share the ticket sequence, so they may be mixed.
///
/// The contract is *enforced*, not just documented: every collective
/// publishes an `check::OpFingerprint` (op kind, payload numel/shape/dtype,
/// root, reduce op, per-group sequence number, caller site) that the last
/// member to issue the op cross-validates before any data moves; a
/// divergence raises `check::CollectiveMismatchError` naming each rank's
/// operation and call site. A watchdog detects ranks stuck past a
/// timeout and peers of a rank that exited mid-collective (see check.hpp).
/// Each collective takes a trailing `site` parameter defaulted to the
/// caller's source location — never pass it explicitly unless forwarding
/// a wrapper's own caller.

namespace orbit::comm {

/// Reduction operator for all_reduce / reduce_scatter.
enum class ReduceOp { kSum, kAvg, kMax };

struct GroupState;  // shared-state implementation detail (world.cpp)

/// Completion handle of one in-flight asynchronous collective.
///
/// Issue (`ProcessGroup::*_async`) is nonblocking: it records the op's
/// fingerprint in the group's in-flight table, publishes the staging
/// pointer, and returns immediately so the caller can keep computing.
/// `wait()` performs the data movement and the completion rendezvous; the
/// op's outputs are defined only after `wait()` returns, and the inputs
/// must not be mutated before then (the in-flight table keeps the input
/// storage alive, but the *values* are read at wait time by every peer).
///
/// Lifetime rules (enforced, not documented-only):
///  * destroying a pending handle outside of stack unwinding throws
///    `std::logic_error` — a dropped handle is a lost completion, the async
///    twin of ignoring a collective's error;
///  * during unwinding (the owning rank is already dying) the destructor
///    instead *abandons* the op: it marks this rank complete so peers
///    blocked in `wait()` drain cleanly and the usual peer-exit detection
///    reports the dying rank as the root cause;
///  * `wait()` is idempotent — waiting a completed or moved-from handle is
///    a no-op.
class CommHandle {
 public:
  CommHandle();  // out-of-line: Impl is incomplete here
  ~CommHandle() noexcept(false);
  CommHandle(CommHandle&& other) noexcept;
  CommHandle& operator=(CommHandle&& other);
  CommHandle(const CommHandle&) = delete;
  CommHandle& operator=(const CommHandle&) = delete;

  /// True between issue and the first successful `wait()`.
  bool pending() const;
  /// Complete the op: rendezvous with every member's issue, move the data,
  /// and synchronize completion. Throws the same typed errors as the
  /// blocking collectives (CollectiveMismatchError / CommDesyncError /
  /// sticky group poison).
  void wait();

  struct Impl;  // world.cpp

 private:
  friend class ProcessGroup;
  explicit CommHandle(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Wait every handle in issue order; `handles` is left empty. Equivalent to
/// calling `wait()` on each, provided for the bucketed-engine idiom.
void wait_all(std::vector<CommHandle>& handles);

/// Per-rank handle onto one communicator group. Cheap to copy.
///
/// A handle obtained by a non-member of the group is *invalid*
/// (`valid() == false`); every operation on an invalid handle throws
/// `std::logic_error` immediately instead of dereferencing null state.
class ProcessGroup {
 public:
  ProcessGroup() = default;
  ProcessGroup(std::shared_ptr<GroupState> state, int group_rank);

  bool valid() const { return state_ != nullptr; }
  /// Rank of the caller within this group, in [0, size); -1 when invalid.
  int rank() const { return group_rank_; }
  /// Number of member ranks.
  int size() const;
  /// Global (world) ranks of the members, in group-rank order.
  const std::vector<int>& members() const;
  /// "group {0,1,3} rank 2" — for error messages and logs.
  std::string describe() const;

  /// Block until every member reaches the barrier.
  void barrier(check::Site site = check::Site::current()) const;

  /// Elementwise reduce across members; every member ends with the result.
  void all_reduce(Tensor& t, ReduceOp op = ReduceOp::kSum,
                  check::Site site = check::Site::current()) const;

  /// Concatenate equal-size shards in group-rank order.
  /// `out.numel()` must equal `size() * shard.numel()`.
  void all_gather(const Tensor& shard, Tensor& out,
                  check::Site site = check::Site::current()) const;

  /// Reduce `input` elementwise across members, then scatter: member r keeps
  /// the r-th of `size()` equal segments. `input.numel() == size() * out.numel()`.
  void reduce_scatter(const Tensor& input, Tensor& out,
                      ReduceOp op = ReduceOp::kSum,
                      check::Site site = check::Site::current()) const;

  /// Copy `t` from `root` (group rank) to every member.
  void broadcast(Tensor& t, int root,
                 check::Site site = check::Site::current()) const;

  /// Gather equal-size shards to `root` only; `out` is ignored on other
  /// ranks (may be undefined there).
  void gather(const Tensor& shard, Tensor& out, int root,
              check::Site site = check::Site::current()) const;

  /// Inverse of gather: root's `input` is split into `size()` equal segments,
  /// member r receives segment r into `out`.
  void scatter(const Tensor& input, Tensor& out, int root,
               check::Site site = check::Site::current()) const;

  // --- nonblocking issue + explicit completion -----------------------------
  // Each `*_async` variant has the argument contract of its blocking twin,
  // validates the same preconditions at issue time, and produces a
  // bitwise-identical result once `wait()` returns (the blocking form is
  // the same issue followed at once by the same completion). p2p has no
  // async form: `send` is already nonblocking (mailbox post) and `recv` is
  // a completion by definition.

  /// Nonblocking barrier: `wait()` returns once every member issued it.
  CommHandle barrier_async(check::Site site = check::Site::current()) const;

  /// Nonblocking all_reduce; `t` holds the reduction after `wait()`.
  CommHandle all_reduce_async(Tensor& t, ReduceOp op = ReduceOp::kSum,
                              check::Site site = check::Site::current()) const;

  /// Nonblocking all_gather; `out` is filled after `wait()`.
  CommHandle all_gather_async(const Tensor& shard, Tensor& out,
                              check::Site site = check::Site::current()) const;

  /// Nonblocking reduce_scatter; `out` holds segment `rank()` after `wait()`.
  CommHandle reduce_scatter_async(
      const Tensor& input, Tensor& out, ReduceOp op = ReduceOp::kSum,
      check::Site site = check::Site::current()) const;

  /// Nonblocking broadcast; non-root `t` holds root's data after `wait()`.
  CommHandle broadcast_async(Tensor& t, int root,
                             check::Site site = check::Site::current()) const;

  /// Nonblocking gather; root's `out` is filled after `wait()`. Root's
  /// output size is validated at issue (before any rendezvous), so a bad
  /// `out` fails fast on the caller without stranding peers.
  CommHandle gather_async(const Tensor& shard, Tensor& out, int root,
                          check::Site site = check::Site::current()) const;

  /// Nonblocking scatter; `out` holds segment `rank()` after `wait()`.
  CommHandle scatter_async(const Tensor& input, Tensor& out, int root,
                           check::Site site = check::Site::current()) const;

  /// Point-to-point: post `t` to `dst` (group rank) under `tag`.
  void send(const Tensor& t, int dst, int tag,
            check::Site site = check::Site::current()) const;

  /// Block until a matching message from `src` under `tag` arrives.
  /// Fails fast (instead of hanging) when `src` exits without sending —
  /// the classic tag-mismatch bug — or when the watchdog trips.
  Tensor recv(int src, int tag,
              check::Site site = check::Site::current()) const;

  /// Total traffic bytes recorded on this group so far, counted once per
  /// collective (not per rank). Convention: a collective records the
  /// *maximum per-rank interconnect traffic* it implies,
  /// `(size() - 1) * per_rank_payload * sizeof(float)` — n for
  /// all_reduce/broadcast, the shard for all_gather/gather, the segment
  /// for reduce_scatter/scatter; a single-member group records 0. p2p
  /// records `numel * sizeof(float)` at *both* endpoints (one send op +
  /// one recv op). Applied identically to trace span byte args and the
  /// `comm_bytes_total{axis=...}` registry counter; see DESIGN.md §4i.
  std::uint64_t bytes_moved() const;
  /// Number of collective operations issued on this group.
  std::uint64_t ops_issued() const;

  /// Tag this group with the parallel axis it implements ("tp", "fsdp",
  /// "ddp", "data", "world", ...). The tag labels the group's collective
  /// spans and counters in `orbit::trace` and keys the per-axis breakdown in
  /// `trace_report` / `traffic_report()`. `axis` must be a static-duration
  /// string (it is recorded on the lock-free hot path). Shared group state:
  /// one member tagging the axis tags it for all members.
  void set_axis(const char* axis) const;
  /// The tag set by `set_axis`, or "group" when untagged.
  const char* axis() const;

 private:
  // The one collective engine (world.cpp). A blocking collective is
  // `run_op`: issue, then complete before returning. An `*_async` one is
  // `issue_async_op`: issue, then hand the op back as a CommHandle.
  // `out` is null for a barrier; all_reduce and broadcast pass `&in`.
  void run_op(check::CollOp kind, const Tensor* fp_payload, const Tensor& in,
              Tensor* out, int root, int reduce_op, check::Site site) const;
  CommHandle issue_async_op(check::CollOp kind, const Tensor* fp_payload,
                            const Tensor& in, Tensor* out, int root,
                            int reduce_op, check::Site site) const;
  /// Validates one call's arguments (the single place both forms check
  /// them) and builds this rank's side of the op; throws before any group
  /// state changes.
  void prepare_op(CommHandle::Impl& op, check::CollOp kind, bool async,
                  const Tensor* fp_payload, const Tensor& in, Tensor* out,
                  int root, int reduce_op, check::Site site) const;
  /// Registers the prepared op under the group's next ticket and returns
  /// with the group lock still held, so the blocking form can go straight
  /// on to its completion.
  std::unique_lock<std::mutex> issue_op(CommHandle::Impl& op,
                                        const Tensor& in) const;
  /// Throws std::logic_error when this handle is invalid (non-member).
  void require_valid(const char* what) const;

  std::shared_ptr<GroupState> state_;
  int group_rank_ = -1;
};

}  // namespace orbit::comm
