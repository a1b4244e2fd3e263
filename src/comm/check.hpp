#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__has_include)
#if __has_include(<source_location>)
#include <source_location>
#define ORBIT_COMM_HAS_SOURCE_LOCATION 1
#endif
#endif

/// \file check.hpp
/// Collective-correctness checker for the simulated cluster.
///
/// The process-group contract ("every member rank must call the same
/// operation in the same order with compatible arguments") is enforced at
/// runtime: each collective computes an OpFingerprint — operation kind,
/// payload numel/shape/dtype, root, reduce op, per-group sequence number,
/// and the caller's source location — and the last member to issue the
/// op cross-validates the fingerprints of all member ranks before any data
/// moves. A divergence aborts the run with a diagnostic naming the group,
/// the sequence number, and every rank's operation + call site.
///
/// A watchdog thread in the World complements the fingerprint check with
/// deadlock/desync detection: it builds a wait-graph from per-rank
/// "currently blocked in collective X on group G" state and fails the run
/// (instead of hanging forever) when a rank is stuck past a configurable
/// timeout. Peers of a rank that exited or threw mid-collective are woken
/// and fail immediately, without waiting for the timeout.
///
/// Runtime toggles (read once, overridable programmatically):
///  * `ORBIT_COMM_CHECK=0|off|false` disables fingerprint validation and
///    the watchdog (peer-exit detection stays on — it costs nothing and
///    keeps a buggy run from hanging ctest).
///  * `ORBIT_COMM_TIMEOUT_MS=<n>` sets the watchdog timeout (default 30000).

namespace orbit::comm::check {

/// Collective operation kinds tracked by the checker.
enum class CollOp : std::uint8_t {
  kBarrier,
  kAllReduce,
  kAllGather,
  kReduceScatter,
  kBroadcast,
  kGather,
  kScatter,
  kSend,
  kRecv,
};

const char* op_name(CollOp op);

/// Lightweight caller source location. Collectives take a `Site` defaulted
/// to `Site::current()`, so the *caller's* file:line is captured with zero
/// annotation burden; `ORBIT_COMM_SITE` builds one explicitly where a
/// custom location is wanted (e.g. a wrapper that forwards its own caller).
struct Site {
  const char* file = "<unknown>";
  unsigned line = 0;
  const char* func = "";

#ifdef ORBIT_COMM_HAS_SOURCE_LOCATION
  static Site current(
      std::source_location loc = std::source_location::current()) {
    return Site{loc.file_name(), static_cast<unsigned>(loc.line()),
                loc.function_name()};
  }
#else
  static Site current() { return Site{}; }
#endif

  /// "ddp.cpp:44 (sync_grads)" — basename only, for readable diagnostics.
  std::string str() const;
};

#define ORBIT_COMM_SITE \
  (::orbit::comm::check::Site{__FILE__, __LINE__, __func__})

/// What one rank claims it is doing when it issues a collective. Validated
/// field-by-field against every other member rank's fingerprint.
struct OpFingerprint {
  CollOp op = CollOp::kBarrier;
  std::uint64_t seq = 0;    ///< per-group collective count (the ticket)
  std::int64_t numel = 0;   ///< payload element count (op-specific payload)
  std::vector<std::int64_t> shape;  ///< payload shape
  const char* dtype = "f32";        ///< single dtype today; kept for growth
  int root = -1;                    ///< broadcast/gather/scatter root, else -1
  int reduce_op = -1;               ///< static_cast<int>(ReduceOp), else -1
  int peer = -1;                    ///< send dst / recv src (p2p only)
  int tag = -1;                     ///< p2p tag
  Site site;                        ///< caller location

  /// "all_reduce(numel=16 shape=[4,4] f32 red=sum seq=3) at ddp.cpp:44"
  std::string describe() const;
};

/// True when `a` and `b` describe the same collective (site and seq are
/// diagnostic-only: distinct call sites may legally issue the same op).
/// On mismatch returns the offending field name.
std::optional<std::string> fingerprint_mismatch(const OpFingerprint& a,
                                                const OpFingerprint& b);

/// Validate the fingerprints published by every member of a group for one
/// op (`fps[r]` is group rank r's). Returns a full diagnostic on
/// divergence, listing each rank's op + call site, or an empty optional
/// when consistent.
std::optional<std::string> validate_fingerprints(
    const std::string& group_desc, const std::vector<int>& members,
    const std::vector<OpFingerprint>& fps);

/// Base class of every checker-raised failure.
class CommCheckError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Member ranks issued divergent collectives on the same group.
class CollectiveMismatchError : public CommCheckError {
 public:
  using CommCheckError::CommCheckError;
};

/// A rank was stuck in a collective past the watchdog timeout, or its
/// peers exited/threw while it waited (desync / deadlock / tag mismatch).
class CommDesyncError : public CommCheckError {
 public:
  using CommCheckError::CommCheckError;
};

/// Global toggles (atomics; env-seeded on first use).
bool enabled();
void set_enabled(bool on);
std::chrono::milliseconds timeout();
void set_timeout_ms(long ms);

/// RAII override for tests: applies the given settings, restores on exit.
class ScopedConfig {
 public:
  ScopedConfig(bool on, long timeout_ms);
  ~ScopedConfig();
  ScopedConfig(const ScopedConfig&) = delete;
  ScopedConfig& operator=(const ScopedConfig&) = delete;

 private:
  bool old_enabled_;
  long old_timeout_ms_;
};

/// Per-world rank-state registry feeding the watchdog's wait-graph.
/// Thread-safe; one instance per World.
class WorldCheck {
 public:
  explicit WorldCheck(int world_size);
  ~WorldCheck();
  WorldCheck(const WorldCheck&) = delete;
  WorldCheck& operator=(const WorldCheck&) = delete;

  bool check_enabled() const { return enabled_; }
  std::chrono::milliseconds check_timeout() const { return timeout_; }

  /// Rank `world_rank` starts blocking in a collective (`desc` names the
  /// op, group, and call site). Cleared via `clear_blocked`.
  void set_blocked(int world_rank, std::string desc);
  void clear_blocked(int world_rank);

  /// Rank's SPMD function returned (`threw=false`) or threw (`threw=true`).
  void set_exited(int world_rank, bool threw);
  bool exited(int world_rank) const;

  /// First failure wins; later calls are ignored.
  void fail(std::string message);
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  std::string failure() const;

  /// True when some rank has been blocked longer than the timeout;
  /// `report` then receives the full wait-graph diagnostic.
  bool find_timed_out(std::string* report) const;

  /// One line per rank: running / exited / threw / blocked-in-what-for-
  /// how-long. The watchdog prepends its verdict to this.
  std::string wait_graph() const;

 private:
  enum class Status : std::uint8_t { kRunning, kBlocked, kExited, kThrew };
  struct RankState {
    Status status = Status::kRunning;
    std::string blocked_desc;
    std::chrono::steady_clock::time_point blocked_since{};
  };

  bool enabled_;
  std::chrono::milliseconds timeout_;
  std::atomic<bool> failed_{false};
  mutable std::mutex mu_;
  std::string failure_;
  std::vector<RankState> ranks_;
};

}  // namespace orbit::comm::check
