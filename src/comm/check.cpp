#include "comm/check.hpp"

#include <cstring>
#include <limits>
#include <sstream>

#include "comm/process_group.hpp"
#include "env/env.hpp"

namespace orbit::comm::check {
namespace {

/// Strip directories: diagnostics cite "ddp.cpp:44", not a build path.
const char* basename_of(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/' || *p == '\\') base = p + 1;
  }
  return base;
}

const char* reduce_op_name(int op) {
  switch (static_cast<ReduceOp>(op)) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kAvg: return "avg";
    case ReduceOp::kMax: return "max";
  }
  return "?";
}

std::string shape_str(const std::vector<std::int64_t>& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ',';
    os << shape[i];
  }
  os << ']';
  return os.str();
}

constexpr long kDefaultTimeoutMs = 30000;

std::atomic<bool>& enabled_flag() {
  // Strict parse (env::EnvError on garbage): a fat-fingered ORBIT_COMM_CHECK
  // must not silently run a thousand-rank job with the checker in an
  // unintended state. Defaults ON when unset.
  static std::atomic<bool> flag{env::flag_or("ORBIT_COMM_CHECK", true)};
  return flag;
}

std::atomic<long>& timeout_ms_value() {
  static std::atomic<long> ms{static_cast<long>(
      env::i64_or("ORBIT_COMM_TIMEOUT_MS", kDefaultTimeoutMs, 1,
                  std::numeric_limits<long>::max()))};
  return ms;
}

}  // namespace

const char* op_name(CollOp op) {
  switch (op) {
    case CollOp::kBarrier: return "barrier";
    case CollOp::kAllReduce: return "all_reduce";
    case CollOp::kAllGather: return "all_gather";
    case CollOp::kReduceScatter: return "reduce_scatter";
    case CollOp::kBroadcast: return "broadcast";
    case CollOp::kGather: return "gather";
    case CollOp::kScatter: return "scatter";
    case CollOp::kSend: return "send";
    case CollOp::kRecv: return "recv";
  }
  return "?";
}

std::string Site::str() const {
  std::ostringstream os;
  os << basename_of(file) << ':' << line;
  if (func != nullptr && *func != '\0') os << " (" << func << ')';
  return os.str();
}

std::string OpFingerprint::describe() const {
  std::ostringstream os;
  os << op_name(op) << '(';
  if (op == CollOp::kSend || op == CollOp::kRecv) {
    os << (op == CollOp::kSend ? "dst=" : "src=") << peer << " tag=" << tag;
    if (numel > 0) os << " numel=" << numel;
  } else if (op == CollOp::kBarrier) {
    os << "seq=" << seq;
  } else {
    os << "numel=" << numel << " shape=" << shape_str(shape) << ' ' << dtype;
    if (root >= 0) os << " root=" << root;
    if (reduce_op >= 0) os << " red=" << reduce_op_name(reduce_op);
    os << " seq=" << seq;
  }
  os << ") at " << site.str();
  return os.str();
}

std::optional<std::string> fingerprint_mismatch(const OpFingerprint& a,
                                                const OpFingerprint& b) {
  if (a.op != b.op) return std::string("operation");
  if (a.seq != b.seq) return std::string("sequence number");
  if (a.numel != b.numel) return std::string("payload numel");
  if (a.shape != b.shape) return std::string("payload shape");
  if (std::strcmp(a.dtype, b.dtype) != 0) return std::string("dtype");
  if (a.root != b.root) return std::string("root");
  if (a.reduce_op != b.reduce_op) return std::string("reduce op");
  return std::nullopt;
}

std::optional<std::string> validate_fingerprints(
    const std::string& group_desc, const std::vector<int>& members,
    const std::vector<OpFingerprint>& fps) {
  const std::size_t p = members.size();
  std::optional<std::string> why;
  for (std::size_t r = 1; r < p && !why; ++r) {
    why = fingerprint_mismatch(fps[0], fps[r]);
  }
  if (!why) return std::nullopt;

  std::ostringstream os;
  os << "collective mismatch on " << group_desc << " at seq " << fps[0].seq
     << ": member ranks diverged on " << *why << "; per-rank operations:";
  for (std::size_t r = 0; r < p; ++r) {
    os << "\n  group rank " << r << " (world rank " << members[r]
       << "): " << fps[r].describe();
  }
  return os.str();
}

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

std::chrono::milliseconds timeout() {
  return std::chrono::milliseconds(
      timeout_ms_value().load(std::memory_order_relaxed));
}

void set_timeout_ms(long ms) {
  timeout_ms_value().store(ms > 0 ? ms : kDefaultTimeoutMs,
                           std::memory_order_relaxed);
}

ScopedConfig::ScopedConfig(bool on, long timeout_ms)
    : old_enabled_(enabled()), old_timeout_ms_(timeout().count()) {
  set_enabled(on);
  set_timeout_ms(timeout_ms);
}

ScopedConfig::~ScopedConfig() {
  set_enabled(old_enabled_);
  set_timeout_ms(old_timeout_ms_);
}

WorldCheck::WorldCheck(int world_size)
    : enabled_(enabled()),
      timeout_(timeout()),
      ranks_(static_cast<std::size_t>(world_size)) {}

WorldCheck::~WorldCheck() = default;

void WorldCheck::set_blocked(int world_rank, std::string desc) {
  std::lock_guard<std::mutex> lk(mu_);
  RankState& rs = ranks_[static_cast<std::size_t>(world_rank)];
  rs.status = Status::kBlocked;
  rs.blocked_desc = std::move(desc);
  rs.blocked_since = std::chrono::steady_clock::now();
}

void WorldCheck::clear_blocked(int world_rank) {
  std::lock_guard<std::mutex> lk(mu_);
  RankState& rs = ranks_[static_cast<std::size_t>(world_rank)];
  rs.status = Status::kRunning;
  rs.blocked_desc.clear();
}

void WorldCheck::set_exited(int world_rank, bool threw) {
  std::lock_guard<std::mutex> lk(mu_);
  ranks_[static_cast<std::size_t>(world_rank)].status =
      threw ? Status::kThrew : Status::kExited;
}

bool WorldCheck::exited(int world_rank) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Status s = ranks_[static_cast<std::size_t>(world_rank)].status;
  return s == Status::kExited || s == Status::kThrew;
}

void WorldCheck::fail(std::string message) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (failed_.load(std::memory_order_relaxed)) return;
    failure_ = std::move(message);
  }
  failed_.store(true, std::memory_order_release);
}

std::string WorldCheck::failure() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failure_;
}

bool WorldCheck::find_timed_out(std::string* report) const {
  const auto now = std::chrono::steady_clock::now();
  int victim = -1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      if (ranks_[r].status == Status::kBlocked &&
          now - ranks_[r].blocked_since > timeout_) {
        victim = static_cast<int>(r);
        break;
      }
    }
  }
  if (victim < 0) return false;
  if (report != nullptr) {
    std::ostringstream os;
    os << "collective timeout: rank " << victim
       << " blocked past the watchdog timeout ("
       << timeout_.count() << " ms) — deadlock or desync; wait-graph:\n"
       << wait_graph();
    *report = os.str();
  }
  return true;
}

std::string WorldCheck::wait_graph() const {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream os;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    os << "  rank " << r << ": ";
    switch (ranks_[r].status) {
      case Status::kRunning:
        os << "running (not in a collective)";
        break;
      case Status::kExited:
        os << "exited";
        break;
      case Status::kThrew:
        os << "threw";
        break;
      case Status::kBlocked: {
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            now - ranks_[r].blocked_since)
                            .count();
        os << "blocked in " << ranks_[r].blocked_desc << " for " << ms
           << " ms";
        break;
      }
    }
    if (r + 1 < ranks_.size()) os << '\n';
  }
  return os.str();
}

}  // namespace orbit::comm::check
