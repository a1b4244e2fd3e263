#pragma once

#include <optional>
#include <string>

/// \file flight_recorder.hpp
/// The crash flight recorder (DESIGN.md §4h). Once armed with an output
/// prefix, terminal failures leave a postmortem bundle
/// `<prefix>.postmortem.json` (schema `orbit.postmortem.v1`) carrying:
///
///   * the final metrics snapshot (flattened series, exporter naming),
///   * the last-N trace-ring events per track (most recent tail),
///   * every resolved `ORBIT_*` knob (set knobs verbatim, unset marked),
///   * the recorded reason plus error text and — when the failure came out
///     of `run_spmd` — the root-cause note the comm layer attached.
///
/// Dump triggers, in decreasing order of fidelity:
///   1. The resilience supervisor: every failed attempt gets its own
///      `<prefix>.attempt<k>.postmortem.json`, and a terminal outcome also
///      writes the final `<prefix>.postmortem.json` (path recorded on the
///      `AttemptRecord`).
///   2. `install_crash_handlers()`: std::terminate and fatal signals
///      (SIGABRT/SIGSEGV/SIGBUS/SIGILL/SIGFPE). Best-effort by design —
///      the dump path allocates and takes locks, which is not
///      async-signal-safe; a crash *inside* malloc may lose the bundle,
///      but every other crash gets one where there was none before.
///
/// All entry points are no-ops until `arm()` is called, so library users
/// who never opt in never see files appear.

namespace orbit::telemetry {

/// Arm the recorder: bundles go to `<prefix>...postmortem.json`. Passing an
/// empty prefix disarms. Thread-safe; last call wins.
void arm_flight_recorder(const std::string& prefix);

/// The currently armed prefix; nullopt when disarmed.
std::optional<std::string> armed_prefix();

/// Attach a root-cause note (e.g. run_spmd's first-failing-rank analysis)
/// to subsequent bundles. Sticky; each new failure overwrites the last, so
/// the per-attempt and terminal bundles of one failure agree.
void note_root_cause(const std::string& note);

/// Write one bundle now. `reason` is a short machine-checkable tag
/// ("supervisor_terminal", "attempt_failed", "std_terminate", "signal",
/// "manual"); `error` is the human-readable failure text. Returns the
/// bundle path, or nullopt when disarmed or the write failed. `suffix` is
/// spliced between prefix and ".postmortem.json" (the per-attempt dumps
/// pass ".attempt<k>").
std::optional<std::string> dump_postmortem(const std::string& reason,
                                           const std::string& error,
                                           const std::string& suffix = "");

/// Install std::terminate + fatal-signal hooks that call
/// `dump_postmortem()` before re-raising. Idempotent. The hooks are
/// harmless while disarmed.
void install_crash_handlers();

/// Structural validation of a bundle file: schema tag, required sections,
/// well-formed JSON, metric values numbers or `null` (the bundle's encoding
/// of a non-finite metric). Returns a description of the first problem, or
/// nullopt when the bundle is valid. Used by the postmortem tests and by
/// `tools/metrics_report --check-postmortem`.
std::optional<std::string> validate_bundle(const std::string& path);

}  // namespace orbit::telemetry
