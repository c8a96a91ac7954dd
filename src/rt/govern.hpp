// Resource governance: cooperative cancellation, deadlines, and budgets.
//
// FDD construction and shaping are worst-case exponential in rules x
// fields (Theorem 1), so a hostile — or merely unlucky — policy pair can
// hang or exhaust memory in the middle of a comparison pipeline. A
// RunContext makes every governed pipeline *interruptible*: it carries a
// cancellation token, a wall-clock deadline, and resource budgets (node
// count, interned-label bytes, generated-rule count), and the hot
// recursive paths call cheap amortized checkpoints against it. A breached
// limit raises a structured dfw::Error, which the governed entry points
// (discrepancies_governed, DiverseDesign::compare_governed, governed
// cross_compare) catch and convert into a *partial, clearly marked*
// result instead of an opaque exception, a hang, or an OOM kill.
//
// Design rules:
//   * Ungoverned means free: every hook takes a nullable RunContext*; a
//     null context short-circuits before touching any state, so the
//     default pipelines are byte-identical to — and as fast as — the
//     pre-governance code.
//   * Checkpoints are amortized: cancellation and deadline are only
//     consulted every `checkpoint_grain` ticks; budget charges compare
//     two integers. Worst-case cancellation latency is one grain of hot-
//     loop work plus one subtree unwind.
//   * A RunContext may be shared by concurrent tasks (a governed parallel
//     batch, cross-comparison pairs): all counters are atomic, and the
//     first breach makes the context *aborted* — a sticky state every
//     later checkpoint observes, so sibling tasks unwind promptly and
//     not-yet-started tasks in a governed Executor batch never run.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace dfw {

/// Machine-readable cause carried by every dfw::Error.
enum class ErrorCode {
  kOk = 0,               ///< no error (Result/outcome success marker)
  kCancelled,            ///< CancelSource::cancel() observed at a checkpoint
  kDeadlineExceeded,     ///< wall-clock deadline passed
  kNodeBudgetExceeded,   ///< diagram/tree node budget breached
  kLabelBudgetExceeded,  ///< interned edge-label byte budget breached
  kRuleBudgetExceeded,   ///< generated-rule budget breached (rule blowup)
  kParseError,           ///< malformed textual input
  kInvalidInput,         ///< structurally invalid input (ids, bounds)
  kInternal,             ///< invariant violation inside the library
  kOverloaded,           ///< admission control refused the request (serve)
  kCapacityExceeded,     ///< compiled layout over its 31-bit index cap
  kFaultInjected,        ///< deterministic injected fault (rt/fault.hpp)
};

/// Stable identifier string, e.g. "NodeBudgetExceeded".
const char* to_string(ErrorCode code);

/// The structured error of the governed API surface. Thrown by RunContext
/// checkpoints and budget charges, rethrown by the Executor at batch join
/// points, and caught at governed pipeline boundaries where it becomes an
/// outcome status. what() is "<Code>: <message>".
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(to_string(code)) + ": " + message),
        code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Value-or-Error, with room for both: a governed operation that was cut
/// short may still carry a usable partial value alongside its error (the
/// caller checks ok() / has_value() to distinguish the three states:
/// success, failure, partial).
template <typename T>
class Result {
 public:
  static Result success(T value) {
    Result r;
    r.value_.emplace(std::move(value));
    return r;
  }
  static Result failure(Error error) {
    Result r;
    r.error_.emplace(std::move(error));
    return r;
  }
  static Result partial(T value, Error error) {
    Result r;
    r.value_.emplace(std::move(value));
    r.error_.emplace(std::move(error));
    return r;
  }

  bool ok() const { return !error_.has_value(); }
  bool has_value() const { return value_.has_value(); }
  ErrorCode code() const { return error_ ? error_->code() : ErrorCode::kOk; }

  /// The value; throws the stored Error when there is none.
  const T& value() const& {
    if (!value_) {
      throw *error_;
    }
    return *value_;
  }
  T&& take() {
    if (!value_) {
      throw *error_;
    }
    return std::move(*value_);
  }
  /// The stored error; only meaningful when !ok().
  const Error& error() const { return *error_; }

 private:
  Result() = default;
  std::optional<T> value_;
  std::optional<Error> error_;
};

/// Hands out CancelTokens and flips them. Copyable; copies share the flag.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }
  class CancelToken token() const;

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Observer end of a CancelSource. Default-constructed tokens never fire.
class CancelToken {
 public:
  CancelToken() = default;

  bool cancel_requested() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}
  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Resource ceilings. 0 means unlimited. Budgets measure *materialised*
/// state, not visits: tree/arena nodes created, bytes of interned edge
/// labels, rules emitted by a generator. For a rule-blowup factor cap,
/// set max_rules = factor * input_rule_count at the call site.
struct Budgets {
  std::size_t max_nodes = 0;
  std::size_t max_label_bytes = 0;
  std::size_t max_rules = 0;
};

/// One governed run: cancellation + deadline + budgets + usage counters.
/// Immutable configuration after construction; counters are atomic, so a
/// single context can govern a parallel batch. Passed by pointer (nullable,
/// borrowed) through options structs; a null pointer disables governance.
class RunContext {
 public:
  struct Config {
    CancelToken cancel;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    Budgets budgets;
    /// Cancellation/deadline are consulted once per this many checkpoint
    /// ticks — the cancellation-latency grain of the hot loops.
    std::size_t checkpoint_grain = 256;
  };

  RunContext() = default;
  explicit RunContext(Config config) : config_(std::move(config)) {
    if (config_.checkpoint_grain == 0) {
      config_.checkpoint_grain = 1;
    }
  }

  /// Convenience: a context whose deadline is `timeout` from now.
  static RunContext after(std::chrono::milliseconds timeout) {
    Config c;
    c.deadline = std::chrono::steady_clock::now() + timeout;
    return RunContext(std::move(c));
  }
  /// Convenience: a context with budgets only.
  static RunContext with_budgets(Budgets budgets) {
    Config c;
    c.budgets = budgets;
    return RunContext(std::move(c));
  }

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  const Budgets& budgets() const { return config_.budgets; }

  /// Amortized cancellation/deadline probe for hot loops: cheap tick, full
  /// check every checkpoint_grain ticks. Throws Error on breach.
  void checkpoint() {
    if (ticks_.fetch_add(1, std::memory_order_relaxed) %
            config_.checkpoint_grain !=
        0) {
      return;
    }
    check_now();
  }

  /// Unamortized check: aborted state, cancellation, deadline.
  void check_now();

  /// Records `count` freshly materialised diagram/tree nodes; throws
  /// Error(kNodeBudgetExceeded) when the budget is breached.
  void charge_nodes(std::size_t count = 1) {
    const std::size_t total =
        nodes_.fetch_add(count, std::memory_order_relaxed) + count;
    if (config_.budgets.max_nodes != 0 &&
        total > config_.budgets.max_nodes) {
      raise(ErrorCode::kNodeBudgetExceeded,
            "created " + std::to_string(total) + " nodes, budget " +
                std::to_string(config_.budgets.max_nodes));
    }
  }

  /// Records `bytes` of freshly interned edge-label storage.
  void charge_label_bytes(std::size_t bytes) {
    const std::size_t total =
        label_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (config_.budgets.max_label_bytes != 0 &&
        total > config_.budgets.max_label_bytes) {
      raise(ErrorCode::kLabelBudgetExceeded,
            "interned " + std::to_string(total) + " label bytes, budget " +
                std::to_string(config_.budgets.max_label_bytes));
    }
  }

  /// Records `count` generated rules (the rule-blowup guard).
  void charge_rules(std::size_t count = 1) {
    const std::size_t total =
        rules_.fetch_add(count, std::memory_order_relaxed) + count;
    if (config_.budgets.max_rules != 0 &&
        total > config_.budgets.max_rules) {
      raise(ErrorCode::kRuleBudgetExceeded,
            "generated " + std::to_string(total) + " rules, budget " +
                std::to_string(config_.budgets.max_rules));
    }
  }

  std::size_t nodes_charged() const {
    return nodes_.load(std::memory_order_relaxed);
  }
  std::size_t label_bytes_charged() const {
    return label_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t rules_charged() const {
    return rules_.load(std::memory_order_relaxed);
  }

  /// True once any governed check has failed (sticky). Concurrent tasks
  /// sharing this context observe it at their next checkpoint; a governed
  /// Executor batch skips chunks that have not started yet.
  bool aborted() const {
    return abort_code_.load(std::memory_order_relaxed) !=
           static_cast<int>(ErrorCode::kOk);
  }
  /// The code of the first breach; kOk while not aborted.
  ErrorCode abort_code() const {
    return static_cast<ErrorCode>(abort_code_.load(std::memory_order_relaxed));
  }

 private:
  [[noreturn]] void raise(ErrorCode code, const std::string& message);

  Config config_{};
  std::atomic<std::size_t> ticks_{0};
  std::atomic<std::size_t> nodes_{0};
  std::atomic<std::size_t> label_bytes_{0};
  std::atomic<std::size_t> rules_{0};
  std::atomic<int> abort_code_{static_cast<int>(ErrorCode::kOk)};
};

inline CancelToken CancelSource::token() const {
  return CancelToken(flag_);
}

/// Null-tolerant checkpoint helpers: the hot paths call these with the
/// (possibly null) context they were handed, keeping governance one
/// branch away from free when disabled.
namespace govern {

inline void checkpoint(RunContext* ctx) {
  if (ctx != nullptr) {
    ctx->checkpoint();
  }
}
inline void charge_nodes(RunContext* ctx, std::size_t count = 1) {
  if (ctx != nullptr) {
    ctx->charge_nodes(count);
  }
}
inline void charge_label_bytes(RunContext* ctx, std::size_t bytes) {
  if (ctx != nullptr) {
    ctx->charge_label_bytes(bytes);
  }
}
inline void charge_rules(RunContext* ctx, std::size_t count = 1) {
  if (ctx != nullptr) {
    ctx->charge_rules(count);
  }
}
inline bool aborted(const RunContext* ctx) {
  return ctx != nullptr && ctx->aborted();
}

}  // namespace govern
}  // namespace dfw
