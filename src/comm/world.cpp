#include "comm/world.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "comm/check.hpp"
#include "comm/fault.hpp"
#include "comm/process_group.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/registry.hpp"
#include "trace/trace.hpp"

namespace orbit::comm {

using check::CollOp;
using check::OpFingerprint;

namespace {

/// Waiters re-evaluate their predicate at least this often, so a missed
/// notify (or a watchdog verdict) is picked up promptly without requiring
/// lock-step wakeups.
constexpr std::chrono::milliseconds kWaitPoll{50};

std::string group_desc_of(const std::vector<int>& members) {
  std::ostringstream os;
  os << "group {";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) os << ',';
    os << members[i];
  }
  os << '}';
  return os.str();
}

/// Traffic-accounting convention (see ProcessGroup::bytes_moved): every
/// collective records the maximum per-rank interconnect traffic it implies,
/// `(p - 1) * per_rank_payload * sizeof(float)`. A single-member group moves
/// nothing between ranks and records 0. The same value labels the op's
/// trace span and feeds `comm_bytes_total{axis=...}` via GroupState::record.
std::uint64_t traffic_bytes(int group_size, std::int64_t per_rank_payload) {
  if (group_size <= 1 || per_rank_payload <= 0) return 0;
  return static_cast<std::uint64_t>(group_size - 1) *
         static_cast<std::uint64_t>(per_rank_payload) * sizeof(float);
}

/// Trace span names per op kind: the blocking call, the async issue, and
/// the async wait. String literals have static storage duration, satisfying
/// the tracer's static-name contract. Indexed by `CollOp` (collectives only).
constexpr const char* kSpanNames[][3] = {
    {"comm.barrier", "comm.barrier.issue", "comm.barrier.wait"},
    {"comm.all_reduce", "comm.all_reduce.issue", "comm.all_reduce.wait"},
    {"comm.all_gather", "comm.all_gather.issue", "comm.all_gather.wait"},
    {"comm.reduce_scatter", "comm.reduce_scatter.issue",
     "comm.reduce_scatter.wait"},
    {"comm.broadcast", "comm.broadcast.issue", "comm.broadcast.wait"},
    {"comm.gather", "comm.gather.issue", "comm.gather.wait"},
    {"comm.scatter", "comm.scatter.issue", "comm.scatter.wait"},
};
enum SpanForm { kBlockingSpan = 0, kIssueSpan = 1, kWaitSpan = 2 };

const char* span_name(check::CollOp op, SpanForm form) {
  return kSpanNames[static_cast<int>(op)][form];
}

/// Clears a rank's wait-graph entry when a blocking wait ends, however it
/// ends. `wc == nullptr` means nothing was published.
struct BlockedGuard {
  check::WorldCheck* wc = nullptr;
  int rank = -1;
  ~BlockedGuard() {
    if (wc != nullptr) wc->clear_blocked(rank);
  }
};

}  // namespace

/// One collective on a group, keyed by its ticket: the per-rank issue count.
/// Every member must issue the same sequence, so ticket k on every rank
/// names the same logical op, which is exactly what `comm::check` validates
/// when the last member's issue arrives. The entry owns a keepalive copy of
/// every rank's input tensor, so published staging pointers stay valid until
/// all members completed (or abandoned) the op, even if a caller unwinds.
/// A recycled entry keeps those copies until its next issue overwrites them
/// (reusing their buffers), so it pins at most one op's inputs.
struct OpState {
  explicit OpState(std::size_t p)
      : fps(p), issued(p, false), done_flag(p, false), srcs(p, nullptr),
        inputs(p) {}

  /// Ready the entry for reuse.
  void reset() {
    std::fill(issued.begin(), issued.end(), false);
    std::fill(done_flag.begin(), done_flag.end(), false);
    std::fill(srcs.begin(), srcs.end(), nullptr);
    issued_count = done_count = released = 0;
  }

  std::vector<OpFingerprint> fps;   ///< per-rank fingerprints, issue order
  std::vector<bool> issued;         ///< rank published fp + staging pointer
  std::vector<bool> done_flag;      ///< rank finished (or abandoned) reads
  std::vector<const float*> srcs;   ///< published per-rank source pointers
  std::vector<Tensor> inputs;       ///< keepalive for the srcs storage
  int issued_count = 0;
  int done_count = 0;
  int released = 0;  ///< members that no longer reference this entry
};

/// Shared state of one communicator group. One instance per group, shared by
/// all member ranks; per-rank `ProcessGroup` handles point here.
///
/// Every collective, blocking or not, is one entry of a ticket-keyed op
/// table over a mutex and condition variable (rather than std::barrier), so
/// that the group can
///  * cross-validate the member ranks' operation fingerprints before any
///    data moves (the last member to issue a ticket validates it),
///  * fail every waiter with a diagnostic instead of hanging when a member
///    rank exits or throws mid-collective, and
///  * surface the watchdog's deadlock verdict to blocked ranks.
struct GroupState {
  GroupState(std::vector<int> member_ranks, check::WorldCheck* world_check)
      : members(std::move(member_ranks)),
        desc(group_desc_of(members)),
        wc(world_check),
        tickets(members.size(), 0) {}

  std::vector<int> members;       ///< global ranks, group-rank order
  std::string desc;               ///< "group {0,1,3}" for diagnostics
  check::WorldCheck* wc;          ///< world rank-state registry (non-owning)

  // --- op table (guarded by sync_mu, waiters woken via sync_cv) -----------
  // Validation happens in issue order: the last member to issue ticket k
  // cross-validates all p fingerprints. A blocking collective takes the
  // next ticket like any `*_async` issue, so both forms share one sequence
  // and may be mixed freely as long as every rank issues the same order.
  std::mutex sync_mu;
  std::condition_variable sync_cv;
  std::string error;               ///< sticky failure; poisons the group
  bool error_is_mismatch = false;  ///< mismatch vs desync classification
  std::vector<std::uint64_t> tickets;  ///< collectives issued per rank
  /// Entries of tickets [inflight_base, inflight_base + inflight.size()).
  /// Entries retire in ticket order once every member released them, and
  /// are recycled through `spare`, so steady state allocates no entries.
  std::deque<std::unique_ptr<OpState>> inflight;
  std::uint64_t inflight_base = 0;
  std::vector<std::unique_ptr<OpState>> spare;

  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> ops{0};
  /// Parallel-axis tag ("tp"/"fsdp"/"ddp"/...) labelling this group's trace
  /// spans and traffic report rows. Static-duration string by contract.
  std::atomic<const char*> axis{"group"};

  /// Registry instruments for the current axis, resolved lazily because the
  /// axis tag is applied after group creation. The cache is keyed on the
  /// axis *pointer* (static strings); re-labelling swaps the cache entry but
  /// keeps old entries owned, so a racing recorder never uses freed memory.
  struct AxisCounters {
    const char* axis_tag;
    telemetry::Counter bytes_total;
    telemetry::Counter ops_total;
    telemetry::Gauge async_inflight;
    telemetry::Counter async_overlap_ns;
    telemetry::Counter async_wait_ns;
  };
  std::mutex axis_mu;
  std::vector<std::unique_ptr<AxisCounters>> axis_owned;
  std::atomic<AxisCounters*> axis_cache{nullptr};

  AxisCounters& axis_counters(const char* ax) {
    AxisCounters* ac = axis_cache.load(std::memory_order_acquire);
    if (ac != nullptr && ac->axis_tag == ax) return *ac;
    std::lock_guard<std::mutex> lk(axis_mu);
    for (const auto& owned : axis_owned) {
      if (owned->axis_tag == ax) {
        axis_cache.store(owned.get(), std::memory_order_release);
        return *owned;
      }
    }
    telemetry::Registry& reg = telemetry::Registry::global();
    axis_owned.push_back(std::make_unique<AxisCounters>(AxisCounters{
        ax,
        reg.counter("comm_bytes_total", {{"axis", ax}},
                    "Collective + p2p traffic bytes per parallel axis "
                    "((p-1) * per-rank payload per collective)"),
        reg.counter("comm_ops_total", {{"axis", ax}},
                    "Collective + p2p operations per parallel axis"),
        reg.gauge("comm_async_inflight", {{"axis", ax}},
                  "Issued-but-unwaited async collectives per parallel axis"),
        reg.counter("comm_async_overlap_ns_total", {{"axis", ax}},
                    "ns async collectives spent in flight before wait() was "
                    "entered (overlapped with compute)"),
        reg.counter("comm_async_wait_ns_total", {{"axis", ax}},
                    "ns spent blocked inside CommHandle::wait")}));
    axis_cache.store(axis_owned.back().get(), std::memory_order_release);
    return *axis_owned.back();
  }

  // Point-to-point mailboxes keyed by (src group rank, dst group rank, tag).
  std::mutex mail_mu;
  std::condition_variable mail_cv;
  std::map<std::tuple<int, int, int>, std::deque<Tensor>> mail;

  void record(std::uint64_t payload_bytes) {
    const std::uint64_t total =
        bytes.fetch_add(payload_bytes, std::memory_order_relaxed) +
        payload_bytes;
    ops.fetch_add(1, std::memory_order_relaxed);
    const char* ax = axis.load(std::memory_order_relaxed);
    // Cumulative per-axis traffic as a trace counter series: the recording
    // rank (group rank 0 / the sender) samples the group's running total.
    trace::counter("comm.bytes", ax, static_cast<std::int64_t>(total));
    // The same traffic as registry series, aggregated *across* groups on an
    // axis (two fsdp groups both feed comm_bytes_total{axis="fsdp"}).
    AxisCounters& ac = axis_counters(ax);
    ac.bytes_total.inc(payload_bytes);
    ac.ops_total.inc();
  }

  [[noreturn]] void throw_sticky() const {
    if (error_is_mismatch) throw check::CollectiveMismatchError(error);
    throw check::CommDesyncError(error);
  }

  /// sync_mu held: the entry of `ticket`, created or recycled by its first
  /// issuer. Tickets below `inflight_base` are retired, which needs every
  /// member's issue, so an issuing rank never names one.
  OpState& op_at(std::uint64_t ticket) {
    while (ticket - inflight_base >= inflight.size()) {
      if (spare.empty()) {
        inflight.push_back(std::make_unique<OpState>(members.size()));
      } else {
        inflight.push_back(std::move(spare.back()));
        spare.pop_back();
      }
    }
    return *inflight[static_cast<std::size_t>(ticket - inflight_base)];
  }

  /// sync_mu held: `grank` finished (or abandoned) its reads of `op`.
  /// Returns true when it was the last member to do so.
  static bool mark_done_locked(OpState& op, int grank) {
    if (!op.done_flag[static_cast<std::size_t>(grank)]) {
      op.done_flag[static_cast<std::size_t>(grank)] = true;
      ++op.done_count;
    }
    return op.done_count == static_cast<int>(op.done_flag.size());
  }

  /// sync_mu held: one member stops referencing `op`. Once all have, the
  /// entry retires (with any older retired ones) and is recycled.
  void release_locked(OpState& op) {
    ++op.released;
    const int p = static_cast<int>(members.size());
    while (!inflight.empty() && inflight.front()->released == p) {
      inflight.front()->reset();
      spare.push_back(std::move(inflight.front()));
      inflight.pop_front();
      ++inflight_base;
    }
  }

  /// sync_mu held via `lk`: block until `count` reaches the group size.
  /// `arrived[r]` tells whether member r already reached this `phase` of
  /// the op. Each poll surfaces the sticky group poison, the watchdog
  /// verdict, and peer exit: a member that exited without arriving can
  /// never arrive, so every waiter fails now instead of hanging until the
  /// watchdog (or forever). The wait-graph entry is published only when
  /// the rank actually blocks.
  void await(std::unique_lock<std::mutex>& lk, int grank, const int& count,
             const std::vector<bool>& arrived, const OpFingerprint& fp,
             const char* phase) {
    const int p = static_cast<int>(members.size());
    if (count < p) {
      const int world_rank = members[static_cast<std::size_t>(grank)];
      BlockedGuard guard{nullptr, world_rank};
      if (wc != nullptr && wc->check_enabled()) {
        // Built outside the group lock: describing the op is slow, and the
        // peers this rank waits for need the lock to arrive.
        lk.unlock();
        wc->set_blocked(world_rank,
                        fp.describe() + ' ' + phase + " on " + desc);
        guard.wc = wc;
        lk.lock();
      }
      while (count < p) {
        if (!error.empty()) throw_sticky();
        if (wc != nullptr) {
          if (wc->failed()) throw check::CommDesyncError(wc->failure());
          for (int r = 0; r < p; ++r) {
            if (r == grank || arrived[static_cast<std::size_t>(r)] ||
                !wc->exited(members[static_cast<std::size_t>(r)])) {
              continue;
            }
            std::ostringstream os;
            os << "desync on " << desc << ": world rank "
               << members[static_cast<std::size_t>(r)] << " (group rank "
               << r << ") exited or threw without reaching "
               << fp.describe() << ' ' << phase
               << ", which its peers are blocked in";
            error = os.str();
            error_is_mismatch = false;
            lk.unlock();
            sync_cv.notify_all();
            throw check::CommDesyncError(os.str());
          }
        }
        sync_cv.wait_for(lk, kWaitPoll);
      }
    }
    if (!error.empty()) throw_sticky();
  }
};

namespace {

float reduce_combine(ReduceOp op, float acc, float v) {
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kAvg:
      return acc + v;
    case ReduceOp::kMax:
      return std::max(acc, v);
  }
  return acc;
}

void reduce_finalise(ReduceOp op, float* data, std::int64_t n, int group_size) {
  if (op == ReduceOp::kAvg) {
    const float inv = 1.0f / static_cast<float>(group_size);
    for (std::int64_t i = 0; i < n; ++i) data[i] *= inv;
  }
}

OpFingerprint make_fp(CollOp op, const Tensor* payload, check::Site site) {
  OpFingerprint fp;
  fp.op = op;
  fp.site = site;
  if (payload != nullptr && payload->defined()) {
    fp.numel = payload->numel();
    fp.shape = payload->shape();
  }
  return fp;
}

}  // namespace

ProcessGroup::ProcessGroup(std::shared_ptr<GroupState> state, int group_rank)
    : state_(std::move(state)), group_rank_(group_rank) {}

void ProcessGroup::require_valid(const char* what) const {
  if (state_ == nullptr) {
    throw std::logic_error(
        std::string("ProcessGroup::") + what +
        ": non-member rank used an invalid group handle (new_group returns "
        "an invalid handle to ranks outside the member list; guard with "
        "valid())");
  }
}

int ProcessGroup::size() const {
  require_valid("size");
  return static_cast<int>(state_->members.size());
}

const std::vector<int>& ProcessGroup::members() const {
  require_valid("members");
  return state_->members;
}

std::string ProcessGroup::describe() const {
  if (state_ == nullptr) return "invalid group";
  return state_->desc + " rank " + std::to_string(group_rank_);
}

// ---------------------------------------------------------------------------
// Collectives. Each public call is a thin entry into the one engine below:
// the blocking form issues the op and completes it before returning; the
// `*_async` form returns the issued op as a CommHandle.

void ProcessGroup::barrier(check::Site site) const {
  run_op(CollOp::kBarrier, nullptr, Tensor(), nullptr, -1, -1, site);
}

void ProcessGroup::all_reduce(Tensor& t, ReduceOp op, check::Site site) const {
  run_op(CollOp::kAllReduce, &t, t, &t, -1, static_cast<int>(op), site);
}

void ProcessGroup::all_gather(const Tensor& shard, Tensor& out,
                              check::Site site) const {
  run_op(CollOp::kAllGather, &shard, shard, &out, -1, -1, site);
}

void ProcessGroup::reduce_scatter(const Tensor& input, Tensor& out,
                                  ReduceOp op, check::Site site) const {
  run_op(CollOp::kReduceScatter, &out, input, &out, -1, static_cast<int>(op),
         site);
}

void ProcessGroup::broadcast(Tensor& t, int root, check::Site site) const {
  run_op(CollOp::kBroadcast, &t, t, &t, root, -1, site);
}

void ProcessGroup::gather(const Tensor& shard, Tensor& out, int root,
                          check::Site site) const {
  run_op(CollOp::kGather, &shard, shard, &out, root, -1, site);
}

void ProcessGroup::scatter(const Tensor& input, Tensor& out, int root,
                           check::Site site) const {
  run_op(CollOp::kScatter, &out, input, &out, root, -1, site);
}

CommHandle ProcessGroup::barrier_async(check::Site site) const {
  return issue_async_op(CollOp::kBarrier, nullptr, Tensor(), nullptr, -1, -1,
                        site);
}

CommHandle ProcessGroup::all_reduce_async(Tensor& t, ReduceOp op,
                                          check::Site site) const {
  return issue_async_op(CollOp::kAllReduce, &t, t, &t, -1,
                        static_cast<int>(op), site);
}

CommHandle ProcessGroup::all_gather_async(const Tensor& shard, Tensor& out,
                                          check::Site site) const {
  return issue_async_op(CollOp::kAllGather, &shard, shard, &out, -1, -1, site);
}

CommHandle ProcessGroup::reduce_scatter_async(const Tensor& input, Tensor& out,
                                              ReduceOp op,
                                              check::Site site) const {
  return issue_async_op(CollOp::kReduceScatter, &out, input, &out, -1,
                        static_cast<int>(op), site);
}

CommHandle ProcessGroup::broadcast_async(Tensor& t, int root,
                                         check::Site site) const {
  return issue_async_op(CollOp::kBroadcast, &t, t, &t, root, -1, site);
}

CommHandle ProcessGroup::gather_async(const Tensor& shard, Tensor& out,
                                      int root, check::Site site) const {
  return issue_async_op(CollOp::kGather, &shard, shard, &out, root, -1, site);
}

CommHandle ProcessGroup::scatter_async(const Tensor& input, Tensor& out,
                                       int root, check::Site site) const {
  return issue_async_op(CollOp::kScatter, &out, input, &out, root, -1, site);
}

void ProcessGroup::send(const Tensor& t, int dst, int tag,
                        check::Site site) const {
  require_valid("send");
  (void)site;
  GroupState& g = *state_;
  ORBIT_TRACE_SPAN("comm.send", trace::Category::kComm,
                   g.axis.load(std::memory_order_relaxed),
                   t.numel() * static_cast<std::int64_t>(sizeof(float)));
  if (dst < 0 || dst >= size()) {
    std::ostringstream os;
    os << "send: dst " << dst << " out of range [0, " << size() << ") on "
       << describe();
    throw std::invalid_argument(os.str());
  }
  {
    std::lock_guard<std::mutex> lk(g.mail_mu);
    g.mail[{group_rank_, dst, tag}].push_back(t.clone());
    g.record(static_cast<std::uint64_t>(t.numel()) * sizeof(float));
  }
  g.mail_cv.notify_all();
}

Tensor ProcessGroup::recv(int src, int tag, check::Site site) const {
  require_valid("recv");
  GroupState& g = *state_;
  ORBIT_TRACE_SPAN("comm.recv", trace::Category::kComm,
                   g.axis.load(std::memory_order_relaxed));
  if (src < 0 || src >= size()) {
    std::ostringstream os;
    os << "recv: src " << src << " out of range [0, " << size() << ") on "
       << describe();
    throw std::invalid_argument(os.str());
  }
  OpFingerprint fp = make_fp(CollOp::kRecv, nullptr, site);
  fp.peer = src;
  fp.tag = tag;
  // The wait-graph entry is published only once the rank actually blocks.
  BlockedGuard guard{nullptr, g.members[static_cast<std::size_t>(group_rank_)]};
  const auto key = std::make_tuple(src, group_rank_, tag);
  std::unique_lock<std::mutex> lk(g.mail_mu);
  for (;;) {
    auto it = g.mail.find(key);
    if (it != g.mail.end() && !it->second.empty()) {
      Tensor t = std::move(it->second.front());
      it->second.pop_front();
      lk.unlock();
      // p2p convention: both endpoints record the payload, one send op plus
      // one recv op, so received traffic is no longer invisible to
      // bytes_moved()/comm_bytes_total. The payload size is unknown when
      // the recv span opens, so it is recorded here at delivery (the
      // "comm.bytes" counter series and the registry cover it).
      g.record(static_cast<std::uint64_t>(t.numel()) * sizeof(float));
      return t;
    }
    if (g.wc != nullptr) {
      if (guard.wc == nullptr && g.wc->check_enabled()) {
        g.wc->set_blocked(guard.rank, fp.describe() + " on " + g.desc);
        guard.wc = g.wc;
      }
      if (g.wc->failed()) throw check::CommDesyncError(g.wc->failure());
      if (g.wc->exited(g.members[static_cast<std::size_t>(src)])) {
        // The sender can never deliver: either it never sent (desync) or it
        // sent under a different tag (tag mismatch). List what it did post.
        std::ostringstream os;
        os << "desync on " << g.desc << ": " << fp.describe()
           << " waits on world rank "
           << g.members[static_cast<std::size_t>(src)] << " (group rank "
           << src << "), which exited without a matching send;";
        bool any = false;
        for (const auto& [k, q] : g.mail) {
          if (std::get<0>(k) == src && std::get<1>(k) == group_rank_ &&
              !q.empty()) {
            os << (any ? "," : " undelivered tags from that peer:");
            os << ' ' << std::get<2>(k) << " (" << q.size() << " msg)";
            any = true;
          }
        }
        if (!any) os << " no undelivered messages from that peer";
        throw check::CommDesyncError(os.str());
      }
    }
    g.mail_cv.wait_for(lk, kWaitPoll);
  }
}

// ---------------------------------------------------------------------------
// The collective engine: issue + completion.
//
// Issue publishes this rank's fingerprint and staging pointer under the
// group's next ticket and returns; comm::check validates each ticket in
// issue order, the moment its last member issues. Completion rendezvouses
// with the peers' issues (issue phase), performs the data movement, and
// synchronizes completion (completion phase). A blocking collective is an
// issue followed at once by its completion; an `*_async` one hands the
// issued op back as a CommHandle and completes in wait(). Both forms run
// the same code, so a waited async op is bitwise-identical to its blocking
// twin.

struct CommHandle::Impl {
  GroupState* g = nullptr;
  OpState* op = nullptr;  ///< table entry; this rank releases it when done
  int grank = -1;
  CollOp kind = CollOp::kBarrier;
  OpFingerprint fp;  ///< this rank's fingerprint, for diagnostics
  std::int64_t in_numel = 0;
  float* out = nullptr;  ///< the caller's output storage
  std::int64_t out_numel = 0;
  /// Set only for an async handle, which owns its group and output storage
  /// until it completes (a blocking call's caller keeps both alive) and
  /// counts in the in-flight gauge.
  std::shared_ptr<GroupState> owned_group;
  Tensor owned_out;
  int root = -1;
  ReduceOp rop = ReduceOp::kSum;
  std::uint64_t bytes = 0;     ///< traffic_bytes of this op
  bool wake_peers = false;     ///< last issuer whose peers are not yet woken
  std::uint64_t issue_ns = 0;  ///< trace clock at issue return (async)
  bool done = false;

  /// Trace-span byte argument: none for a barrier, else the traffic bytes.
  std::int64_t span_bytes() const {
    return kind == CollOp::kBarrier ? -1 : static_cast<std::int64_t>(bytes);
  }

  /// The owner is giving up without completing (stack unwinding, or a
  /// completion that threw): release peers — they may still read this
  /// rank's published input, which the op entry keeps alive — and never
  /// touch the outputs. Peer-exit detection reports the dying rank as the
  /// root cause.
  void abandon() noexcept {
    if (done) return;
    {
      std::lock_guard<std::mutex> lk(g->sync_mu);
      GroupState::mark_done_locked(*op, grank);
      g->release_locked(*op);
    }
    g->sync_cv.notify_all();
    if (owned_group != nullptr) {
      g->axis_counters(g->axis.load(std::memory_order_relaxed))
          .async_inflight.add(-1.0);
    }
    done = true;
  }

  /// Wakes the peers waiting for this ticket's issues, if this rank was
  /// the last to issue it (sync_mu not held).
  void notify_issued() {
    if (!wake_peers) return;
    wake_peers = false;
    g->sync_cv.notify_all();
  }

  /// Completes the op. `lk` is the issue's still-held lock in the blocking
  /// form (issue and the issue phase take sync_mu once), or empty.
  void complete(std::unique_lock<std::mutex> lk) {
    try {
      run_completion(lk);
    } catch (...) {
      // The op is no longer pending after a failed completion: it is
      // abandoned so peers drain, and re-destroying an async handle in the
      // caller's catch block stays silent.
      if (lk.owns_lock()) lk.unlock();
      abandon();
      throw;
    }
  }

  void run_completion(std::unique_lock<std::mutex>& lk);
};

void CommHandle::Impl::run_completion(std::unique_lock<std::mutex>& lk) {
  GroupState& gs = *g;
  const int p = static_cast<int>(gs.members.size());

  // Issue phase: rendezvous with every member's issue of this ticket.
  if (!lk.owns_lock()) lk = std::unique_lock<std::mutex>(gs.sync_mu);
  gs.await(lk, grank, op->issued_count, op->issued, fp, "[issue phase]");
  lk.unlock();
  notify_issued();

  // Data movement. The published pointers are stable: every op->srcs write
  // happened before issued_count reached p, which the issue phase observed
  // under the mutex. Results a peer may still be reading (in-place
  // all_reduce, reduce_scatter scratch) are staged locally and written only
  // after the completion rendezvous.
  std::vector<float> acc;
  switch (kind) {
    case CollOp::kAllReduce: {
      const float* s0 = op->srcs[0];
      acc.assign(s0, s0 + in_numel);
      for (int r = 1; r < p; ++r) {
        const float* s = op->srcs[static_cast<std::size_t>(r)];
        for (std::int64_t i = 0; i < in_numel; ++i) {
          acc[static_cast<std::size_t>(i)] =
              reduce_combine(rop, acc[static_cast<std::size_t>(i)], s[i]);
        }
      }
      reduce_finalise(rop, acc.data(), in_numel, p);
      break;
    }
    case CollOp::kAllGather:
    case CollOp::kGather: {
      if (kind == CollOp::kGather && grank != root) break;
      float* dst = out;
      for (int r = 0; r < p; ++r) {
        std::memcpy(dst + static_cast<std::int64_t>(r) * in_numel,
                    op->srcs[static_cast<std::size_t>(r)],
                    static_cast<std::size_t>(in_numel) * sizeof(float));
      }
      break;
    }
    case CollOp::kReduceScatter: {
      const std::int64_t seg = out_numel;
      const std::int64_t off = static_cast<std::int64_t>(grank) * seg;
      const float* s0 = op->srcs[0] + off;
      acc.assign(s0, s0 + seg);
      for (int r = 1; r < p; ++r) {
        const float* s = op->srcs[static_cast<std::size_t>(r)] + off;
        for (std::int64_t i = 0; i < seg; ++i) {
          acc[static_cast<std::size_t>(i)] =
              reduce_combine(rop, acc[static_cast<std::size_t>(i)], s[i]);
        }
      }
      reduce_finalise(rop, acc.data(), seg, p);
      break;
    }
    case CollOp::kBroadcast: {
      if (grank != root) {
        std::memcpy(out, op->srcs[static_cast<std::size_t>(root)],
                    static_cast<std::size_t>(out_numel) * sizeof(float));
      }
      break;
    }
    case CollOp::kScatter: {
      const std::int64_t seg = out_numel;
      std::memcpy(out,
                  op->srcs[static_cast<std::size_t>(root)] +
                      static_cast<std::int64_t>(grank) * seg,
                  static_cast<std::size_t>(seg) * sizeof(float));
      break;
    }
    default:
      break;
  }
  // Recorded by group rank 0 before it marks itself done, so every member
  // sees the updated totals once its own call returns. Barriers move no
  // data and record neither bytes nor an op.
  if (grank == 0 && kind != CollOp::kBarrier) gs.record(bytes);

  // Completion phase: the caller owns its buffers again only when every
  // member finished (or abandoned) its reads.
  lk.lock();
  const bool last = GroupState::mark_done_locked(*op, grank);
  gs.await(lk, grank, op->done_count, op->done_flag, fp, "[completion phase]");
  gs.release_locked(*op);
  done = true;
  lk.unlock();
  if (last) gs.sync_cv.notify_all();

  // Deferred in-place results (all peers have finished reading our input).
  if (kind == CollOp::kAllReduce || kind == CollOp::kReduceScatter) {
    std::memcpy(out, acc.data(), acc.size() * sizeof(float));
  }
}

CommHandle::CommHandle() = default;

CommHandle::CommHandle(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

CommHandle::CommHandle(CommHandle&& other) noexcept = default;

CommHandle& CommHandle::operator=(CommHandle&& other) {
  if (this != &other) {
    if (pending()) {
      throw std::logic_error(
          "CommHandle: move-assignment would drop the pending " +
          impl_->fp.describe() + " on " + impl_->g->desc + "; wait() it first");
    }
    impl_ = std::move(other.impl_);
  }
  return *this;
}

CommHandle::~CommHandle() noexcept(false) {
  if (!pending()) return;
  // Abandon first either way, so peers blocked in wait() drain (peer-exit
  // detection names this rank) instead of hanging on a lost completion.
  impl_->abandon();
  if (std::uncaught_exceptions() == 0) {
    throw std::logic_error("CommHandle destroyed without wait(): " +
                           impl_->fp.describe() + " on " + impl_->g->desc +
                           " was still in flight");
  }
}

bool CommHandle::pending() const { return impl_ != nullptr && !impl_->done; }

void CommHandle::wait() {
  if (!pending()) return;
  GroupState& g = *impl_->g;
  const char* ax = g.axis.load(std::memory_order_relaxed);
  const std::uint64_t wait_enter_ns = trace::now_ns();
  ORBIT_TRACE_SPAN(span_name(impl_->kind, kWaitSpan), trace::Category::kComm,
                   ax);
  impl_->complete(std::unique_lock<std::mutex>());
  GroupState::AxisCounters& ac = g.axis_counters(ax);
  ac.async_overlap_ns.inc(wait_enter_ns - impl_->issue_ns);
  ac.async_wait_ns.inc(trace::now_ns() - wait_enter_ns);
  ac.async_inflight.add(-1.0);
}

void wait_all(std::vector<CommHandle>& handles) {
  for (CommHandle& h : handles) h.wait();
  handles.clear();
}

void ProcessGroup::prepare_op(CommHandle::Impl& op, CollOp kind, bool async,
                              const Tensor* fp_payload, const Tensor& in,
                              Tensor* out, int root, int reduce_op,
                              check::Site site) const {
  if (!valid()) {
    require_valid(
        (std::string(check::op_name(kind)) + (async ? "_async" : "")).c_str());
  }
  const int p = static_cast<int>(state_->members.size());
  // Argument errors throw here, before this rank touches any group state:
  // its peers are unaffected, and the caller may catch and retry. The size
  // checks of gather/scatter apply on the root only (the other ranks'
  // `out`/`input` is unused and may be undefined).
  const bool at_root = group_rank_ == root;
  const std::int64_t out_numel = out != nullptr ? out->numel() : 0;
  const bool bad_root = (kind == CollOp::kBroadcast ||
                         kind == CollOp::kGather || kind == CollOp::kScatter) &&
                        (root < 0 || root >= p);
  const bool bad_out = (kind == CollOp::kAllGather ||
                        (kind == CollOp::kGather && at_root)) &&
                       out_numel != in.numel() * p;
  const bool bad_in = (kind == CollOp::kReduceScatter ||
                       (kind == CollOp::kScatter && at_root)) &&
                      in.numel() != out_numel * p;
  if (bad_root || bad_out || bad_in) {
    std::ostringstream os;
    os << check::op_name(kind) << (async ? "_async" : "") << ": ";
    if (bad_root) {
      os << "root " << root << " out of range [0, " << p << ")";
    } else if (bad_out) {
      os << "out.numel()=" << out_numel
         << " must equal size()*shard.numel()=" << p << '*' << in.numel()
         << '=' << in.numel() * p;
    } else {
      os << "input.numel()=" << in.numel()
         << " must equal size()*out.numel()=" << p << '*' << out_numel
         << '=' << out_numel * p;
    }
    os << " on " << describe();
    throw std::invalid_argument(os.str());
  }

  op.g = state_.get();
  op.grank = group_rank_;
  op.kind = kind;
  op.fp = make_fp(kind, fp_payload, site);
  op.fp.root = root;
  op.fp.reduce_op = reduce_op;
  op.in_numel = in.numel();
  op.out = out != nullptr && out->defined() ? out->data() : nullptr;
  op.out_numel = out_numel;
  op.root = root;
  op.rop = reduce_op >= 0 ? static_cast<ReduceOp>(reduce_op) : ReduceOp::kSum;
  const bool segmented =
      kind == CollOp::kReduceScatter || kind == CollOp::kScatter;
  op.bytes = traffic_bytes(p, segmented ? out_numel : in.numel());
}

std::unique_lock<std::mutex> ProcessGroup::issue_op(CommHandle::Impl& op,
                                                    const Tensor& in) const {
  GroupState& g = *state_;
  const int p = static_cast<int>(g.members.size());
  // Fault-injection point: a collective-triggered kill lands before this
  // rank takes its ticket, so the table stays clean and peers fail via
  // peer-exit detection.
  fault::on_collective(g.members[static_cast<std::size_t>(group_rank_)]);

  std::unique_lock<std::mutex> lk(g.sync_mu);
  if (!g.error.empty()) g.throw_sticky();
  const std::uint64_t ticket =
      g.tickets[static_cast<std::size_t>(group_rank_)]++;
  OpState& st = g.op_at(ticket);
  op.fp.seq = ticket;
  st.fps[static_cast<std::size_t>(group_rank_)] = op.fp;
  st.issued[static_cast<std::size_t>(group_rank_)] = true;
  st.srcs[static_cast<std::size_t>(group_rank_)] =
      in.defined() ? in.data() : nullptr;
  st.inputs[static_cast<std::size_t>(group_rank_)] = in;
  op.op = &st;
  op.wake_peers = ++st.issued_count == p;
  // In-order validation: the last member to issue this ticket
  // cross-validates all p fingerprints; a divergence poisons the group so
  // every waiter (and later issuer) fails with the same typed diagnostic.
  // This rank fails at issue and never completes, so it gives up its slot.
  if (op.wake_peers && g.wc != nullptr && g.wc->check_enabled()) {
    std::optional<std::string> mismatch =
        check::validate_fingerprints(g.desc, g.members, st.fps);
    if (mismatch) {
      g.error = *mismatch;
      g.error_is_mismatch = true;
      GroupState::mark_done_locked(st, group_rank_);
      g.release_locked(st);
      lk.unlock();
      op.notify_issued();
      throw check::CollectiveMismatchError(*mismatch);
    }
  }
  return lk;
}

void ProcessGroup::run_op(CollOp kind, const Tensor* fp_payload,
                          const Tensor& in, Tensor* out, int root,
                          int reduce_op, check::Site site) const {
  CommHandle::Impl op;
  prepare_op(op, kind, /*async=*/false, fp_payload, in, out, root, reduce_op,
             site);
  ORBIT_TRACE_SPAN(span_name(kind, kBlockingSpan), trace::Category::kComm,
                   state_->axis.load(std::memory_order_relaxed),
                   op.span_bytes());
  op.complete(issue_op(op, in));
}

CommHandle ProcessGroup::issue_async_op(CollOp kind, const Tensor* fp_payload,
                                        const Tensor& in, Tensor* out,
                                        int root, int reduce_op,
                                        check::Site site) const {
  auto op = std::make_unique<CommHandle::Impl>();
  prepare_op(*op, kind, /*async=*/true, fp_payload, in, out, root, reduce_op,
             site);
  op->owned_group = state_;
  if (out != nullptr) op->owned_out = *out;
  const char* ax = state_->axis.load(std::memory_order_relaxed);
  ORBIT_TRACE_SPAN(span_name(kind, kIssueSpan), trace::Category::kComm, ax,
                   op->span_bytes());
  issue_op(*op, in).unlock();
  op->notify_issued();
  state_->axis_counters(ax).async_inflight.add(1.0);
  op->issue_ns = trace::now_ns();
  return CommHandle(std::move(op));
}

std::uint64_t ProcessGroup::bytes_moved() const {
  require_valid("bytes_moved");
  return state_->bytes.load(std::memory_order_relaxed);
}

std::uint64_t ProcessGroup::ops_issued() const {
  require_valid("ops_issued");
  return state_->ops.load(std::memory_order_relaxed);
}

void ProcessGroup::set_axis(const char* axis) const {
  require_valid("set_axis");
  state_->axis.store(axis, std::memory_order_relaxed);
}

const char* ProcessGroup::axis() const {
  require_valid("axis");
  return state_->axis.load(std::memory_order_relaxed);
}

/// Shared registry of groups, indexed by creation order so each rank can
/// attach to the group its peers created (see RankContext::new_group).
/// Owns the per-world checker state: the rank-status registry the watchdog
/// scans and every group's pointer into it.
class World {
 public:
  explicit World(int n) : size_(n), wc_(n) {
    std::vector<int> all(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
    world_state_ = std::make_shared<GroupState>(std::move(all), &wc_);
    world_state_->axis.store("world", std::memory_order_relaxed);
  }

  int size() const { return size_; }
  std::shared_ptr<GroupState> world_state() const { return world_state_; }
  check::WorldCheck& check() { return wc_; }

  std::shared_ptr<GroupState> get_or_create(const std::vector<int>& ranks) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = groups_.find(ranks);
    if (it == groups_.end()) {
      it = groups_.emplace(ranks, std::make_shared<GroupState>(ranks, &wc_))
               .first;
      creation_order_.push_back(it->second);
    }
    return it->second;
  }

  /// Snapshot every group's byte/op totals (the read side of the counters
  /// `GroupState::record` maintains): world first, then creation order.
  TrafficReport traffic_report() {
    std::vector<std::shared_ptr<GroupState>> gs;
    {
      std::lock_guard<std::mutex> lk(mu_);
      gs.reserve(creation_order_.size() + 1);
      gs.push_back(world_state_);
      gs.insert(gs.end(), creation_order_.begin(), creation_order_.end());
    }
    TrafficReport report;
    report.groups.reserve(gs.size());
    for (const auto& g : gs) {
      GroupTraffic t;
      t.desc = g->desc;
      t.axis = g->axis.load(std::memory_order_relaxed);
      t.size = static_cast<int>(g->members.size());
      t.bytes = g->bytes.load(std::memory_order_relaxed);
      t.ops = g->ops.load(std::memory_order_relaxed);
      report.groups.push_back(std::move(t));
    }
    return report;
  }

  /// Wake every blocked waiter (op tables and mailboxes) so it re-checks
  /// its predicate — used after a rank exits or the watchdog trips.
  void wake_all() {
    std::vector<std::shared_ptr<GroupState>> gs;
    {
      std::lock_guard<std::mutex> lk(mu_);
      gs.reserve(groups_.size() + 1);
      gs.push_back(world_state_);
      for (const auto& [ranks, state] : groups_) gs.push_back(state);
    }
    for (const auto& g : gs) {
      g->sync_cv.notify_all();
      g->mail_cv.notify_all();
    }
  }

  void on_rank_done(int rank, bool threw) {
    wc_.set_exited(rank, threw);
    wake_all();
  }

 private:
  int size_;
  check::WorldCheck wc_;
  std::shared_ptr<GroupState> world_state_;
  std::mutex mu_;
  std::map<std::vector<int>, std::shared_ptr<GroupState>> groups_;
  std::vector<std::shared_ptr<GroupState>> creation_order_;
};

std::uint64_t TrafficReport::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& g : groups) total += g.bytes;
  return total;
}

std::uint64_t TrafficReport::total_ops() const {
  std::uint64_t total = 0;
  for (const auto& g : groups) total += g.ops;
  return total;
}

std::vector<GroupTraffic> TrafficReport::by_axis() const {
  std::vector<GroupTraffic> out;
  for (const auto& g : groups) {
    auto it = std::find_if(out.begin(), out.end(), [&g](const GroupTraffic& a) {
      return a.axis == g.axis;
    });
    if (it == out.end()) {
      GroupTraffic a;
      a.desc = "axis " + g.axis;
      a.axis = g.axis;
      a.size = g.size;
      a.bytes = g.bytes;
      a.ops = g.ops;
      out.push_back(std::move(a));
    } else {
      it->bytes += g.bytes;
      it->ops += g.ops;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const GroupTraffic& a, const GroupTraffic& b) {
              return a.bytes > b.bytes;
            });
  return out;
}

std::string TrafficReport::summary() const {
  std::ostringstream os;
  os << "comm traffic: " << total_bytes() << " bytes over " << total_ops()
     << " collectives in " << groups.size() << " group(s)\n";
  for (const auto& a : by_axis()) {
    os << "  axis " << a.axis << ": " << a.bytes << " bytes, " << a.ops
       << " ops\n";
  }
  for (const auto& g : groups) {
    os << "  " << g.desc << " [" << g.axis << ", p=" << g.size
       << "]: " << g.bytes << " bytes, " << g.ops << " ops\n";
  }
  return os.str();
}

RankContext::RankContext(World* world, int rank) : world_(world), rank_(rank) {}

int RankContext::world_size() const { return world_->size(); }

ProcessGroup RankContext::world_group() const {
  return ProcessGroup(world_->world_state(), rank_);
}

TrafficReport RankContext::traffic_report() const {
  return world_->traffic_report();
}

ProcessGroup RankContext::new_group(const std::vector<int>& global_ranks) {
  const auto it =
      std::find(global_ranks.begin(), global_ranks.end(), rank_);
  if (it == global_ranks.end()) return {};  // non-members never create state
  auto state = world_->get_or_create(global_ranks);
  return ProcessGroup(state,
                      static_cast<int>(it - global_ranks.begin()));
}

void run_spmd(int world_size, const std::function<void(RankContext&)>& fn) {
  if (world_size <= 0) throw std::invalid_argument("run_spmd: world_size <= 0");
  World world(world_size);
  check::WorldCheck& wc = world.check();

  // Deadlock watchdog: scans the rank-state registry and fails the run with
  // a wait-graph diagnostic when a rank is blocked past the timeout.
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool wd_stop = false;
  std::thread watchdog;
  if (wc.check_enabled()) {
    const auto poll = std::clamp(wc.check_timeout() / 4,
                                 std::chrono::milliseconds(10),
                                 std::chrono::milliseconds(100));
    watchdog = std::thread([&world, &wc, &wd_mu, &wd_cv, &wd_stop, poll] {
      std::unique_lock<std::mutex> lk(wd_mu);
      while (!wd_cv.wait_for(lk, poll, [&wd_stop] { return wd_stop; })) {
        lk.unlock();
        if (!wc.failed()) {
          std::string report;
          if (wc.find_timed_out(&report)) {
            wc.fail("[orbit::comm::check] " + report);
            world.wake_all();
          }
        }
        lk.lock();
      }
    });
  }

  struct RankError {
    std::exception_ptr ep;
    bool from_checker = false;  ///< raised by the checker, not the rank fn
  };
  std::vector<std::thread> threads;
  std::vector<RankError> errors(static_cast<std::size_t>(world_size));
  threads.reserve(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    threads.emplace_back([&world, &fn, &errors, r] {
      trace::set_thread_label("rank", r);
      bool threw = true;
      try {
        RankContext ctx(&world, r);
        fn(ctx);
        threw = false;
      } catch (const check::CommCheckError&) {
        errors[static_cast<std::size_t>(r)] = {std::current_exception(), true};
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = {std::current_exception(), false};
      }
      world.on_rank_done(r, threw);
    });
  }
  for (auto& t : threads) t.join();
  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lk(wd_mu);
      wd_stop = true;
    }
    wd_cv.notify_all();
    watchdog.join();
  }
  // Prefer the root cause: a rank's own exception explains the failure
  // better than the checker-raised desync errors its peers produced while
  // it was unwinding. The chosen error is also noted with the flight
  // recorder, so a postmortem bundle names the first-failing rank even
  // after the supervisor has wrapped the exception in retry bookkeeping.
  auto note_and_rethrow = [](int rank, const RankError& e) {
    std::string what = "non-standard exception";
    try {
      std::rethrow_exception(e.ep);
    } catch (const std::exception& ex) {
      what = ex.what();
      telemetry::note_root_cause(
          "run_spmd rank " + std::to_string(rank) +
          (e.from_checker ? " (checker): " : ": ") + what);
      throw;
    } catch (...) {
      telemetry::note_root_cause("run_spmd rank " + std::to_string(rank) +
                                 ": " + what);
      throw;
    }
  };
  for (std::size_t r = 0; r < errors.size(); ++r) {
    if (errors[r].ep && !errors[r].from_checker) {
      note_and_rethrow(static_cast<int>(r), errors[r]);
    }
  }
  for (std::size_t r = 0; r < errors.size(); ++r) {
    if (errors[r].ep) note_and_rethrow(static_cast<int>(r), errors[r]);
  }
}

}  // namespace orbit::comm
