// Structured error taxonomy for the trial engine.
//
// Bare std::runtime_error tells a sweep driver nothing it can act on. An
// fcr::Error carries (1) a CATEGORY — what kind of failure this is, so a
// campaign can decide between retry, quarantine, and abort — and (2) TRIAL
// PROVENANCE — which trial of which seeded batch was executing, at which
// attempt, and which failpoint (if any) injected the fault — so a failure
// in a million-trial sweep is reproducible from its report line alone:
// re-running the named trial with the named master seed replays it.
//
// The what() string is stable and grep-friendly:
//   error[engine] task 7: ... / error[injected] trial 17 (seed 20160725,
//   attempt 2) failpoint 'workspace/acquire': injected failure
// Tools print it verbatim (fcrsim's one-line diagnostics); tests match on
// the `error[<category>]` prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace fcr {

/// Failure classes the campaign layer distinguishes. Order is stable (the
/// values appear in checkpoint failure reports and test expectations).
enum class ErrorCategory {
  kConfig,    ///< invalid configuration / flag combination (caller error)
  kIo,        ///< file system: unreadable input, failed checkpoint write
  kChannel,   ///< channel construction or resolution failed
  kEngine,    ///< trial execution failed (contract violation, bad factory)
  kTimeout,   ///< watchdog: trial exceeded its round budget
  kCorrupt,   ///< checkpoint failed validation (magic/hash/CRC/truncation)
  kInjected,  ///< a failpoint fired (testing only)
};

constexpr const char* to_string(ErrorCategory c) {
  switch (c) {
    case ErrorCategory::kConfig: return "config";
    case ErrorCategory::kIo: return "io";
    case ErrorCategory::kChannel: return "channel";
    case ErrorCategory::kEngine: return "engine";
    case ErrorCategory::kTimeout: return "timeout";
    case ErrorCategory::kCorrupt: return "corrupt";
    case ErrorCategory::kInjected: return "injected";
  }
  return "unknown";
}

/// Sentinel for "index not set" in TrialProvenance.
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// Where in a seeded batch a failure happened. Every field is optional;
/// layers fill in what they know as the error propagates outward (the
/// thread pool knows the task index, the trial runner maps it to a trial
/// and attaches the master seed, the campaign adds the attempt number).
struct TrialProvenance {
  bool has_seed = false;
  std::uint64_t master_seed = 0;
  std::size_t trial = kNoIndex;    ///< trial index within the batch
  std::size_t task = kNoIndex;     ///< ThreadPool::for_each task index
  std::size_t attempt = 0;         ///< 1-based campaign attempt (0 = unset)
  std::uint64_t round = 0;         ///< engine round when known (0 = unset)
  std::string failpoint;           ///< failpoint site name, if injected
  /// Which execution context ran the failing trial: a pool worker
  /// ("pool#3"), the fabric worker's host:pid identity ("fcrw@host:123"),
  /// or empty for the caller's own thread. Lets a campaign report say
  /// WHERE a failure came from, not just which trial hit it.
  std::string worker;
};

/// The engine's structured exception. Derives from std::runtime_error so
/// pre-taxonomy catch sites keep working; new code catches fcr::Error and
/// reads category() / provenance() instead of parsing what().
class Error : public std::runtime_error {
 public:
  Error(ErrorCategory category, const std::string& message,
        TrialProvenance provenance = {})
      : std::runtime_error(format(category, message, provenance)),
        category_(category),
        message_(message),
        provenance_(std::move(provenance)) {}

  ErrorCategory category() const { return category_; }
  /// The bare message, without the category/provenance prefix.
  const std::string& message() const { return message_; }
  const TrialProvenance& provenance() const { return provenance_; }

  /// Copy with the task index attached (no-op if one is already set) —
  /// what() is rebuilt, so the index appears in the report line.
  [[nodiscard]] Error with_task(std::size_t task) const {
    TrialProvenance p = provenance_;
    if (p.task == kNoIndex) p.task = task;
    return Error(category_, message_, std::move(p));
  }

  /// Copy with batch provenance attached: master seed, trial index, and
  /// the campaign attempt number (0 leaves the attempt unset).
  [[nodiscard]] Error with_trial(std::uint64_t master_seed, std::size_t trial,
                                 std::size_t attempt = 0) const {
    TrialProvenance p = provenance_;
    p.has_seed = true;
    p.master_seed = master_seed;
    if (p.trial == kNoIndex) p.trial = trial;
    if (p.attempt == 0) p.attempt = attempt;
    return Error(category_, message_, std::move(p));
  }

  /// Copy with the executing worker identity attached (no-op if one is
  /// already set — the innermost layer knows best who actually ran it).
  [[nodiscard]] Error with_worker(const std::string& worker) const {
    TrialProvenance p = provenance_;
    if (p.worker.empty()) p.worker = worker;
    return Error(category_, message_, std::move(p));
  }

 private:
  static std::string format(ErrorCategory category, const std::string& message,
                            const TrialProvenance& p) {
    std::ostringstream os;
    os << "error[" << to_string(category) << "]";
    if (p.trial != kNoIndex) os << " trial " << p.trial;
    else if (p.task != kNoIndex) os << " task " << p.task;
    const bool parens = p.has_seed || p.attempt > 0 || p.round > 0;
    if (parens) {
      os << " (";
      const char* sep = "";
      if (p.has_seed) {
        os << "seed " << p.master_seed;
        sep = ", ";
      }
      if (p.attempt > 0) {
        os << sep << "attempt " << p.attempt;
        sep = ", ";
      }
      if (p.round > 0) os << sep << "round " << p.round;
      os << ")";
    }
    if (!p.worker.empty()) os << " worker '" << p.worker << "'";
    if (!p.failpoint.empty()) os << " failpoint '" << p.failpoint << "'";
    os << ": " << message;
    return os.str();
  }

  ErrorCategory category_;
  std::string message_;
  TrialProvenance provenance_;
};

}  // namespace fcr
