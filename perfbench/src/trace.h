// In-memory span tracer for the pipeline benchmark, plus the forwarding
// decorators that put spans around every PropertyTool call and every
// Statistics Updater (listener) notification.
//
// Spans nest on one thread. Each span's self time is its duration minus
// the durations of its direct children, so the self times of all spans
// under a root add up exactly (in integer nanoseconds) to the root's
// duration when the nesting is proper. Aggregates are kept per
// (kind, tool) bucket; individual span records are kept only when a
// Chrome trace file was asked for.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aspect/property_tool.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  // Benchmark phases, timed around the public library calls.
  kScale,
  kIntegrity,
  kTargets,
  kRun,
  kCsvExport,
  kEval,
  kCsvImport,
  kQuery,
  // Calls into one tool, attributed to that tool.
  kToolTarget,
  kToolBind,
  kToolUnbind,
  kToolRebase,
  kToolRepair,
  kToolError,
  kToolTweak,
  kToolVote,
  kToolListener,
  kToolOther,
  kNumKinds,
};

const char* SpanKindName(SpanKind kind);

/// Tool slots: the three paper tools have fixed slots so metric names
/// are stable; kNoTool marks phase spans.
inline constexpr int kNoTool = 0;
inline constexpr int kNumToolSlots = 4;
int ToolSlot(const std::string& tool_name);  // 1..3, or kNoTool
const char* ToolSlotName(int slot);

struct SpanTotals {
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  int64_t calls = 0;
  /// Modifications delivered (listener spans of the tool object itself).
  int64_t mods = 0;
};

class Tracer {
 public:
  explicit Tracer(bool keep_records);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Begin(SpanKind kind, int tool);
  void End(int64_t mods = 0);

  const SpanTotals& totals(SpanKind kind, int tool) const {
    return totals_[Index(kind, tool)];
  }
  /// Sum of the self times of the spans of one kind (all tools) at or
  /// below a kRun span.
  int64_t run_self_ns(SpanKind kind) const {
    return run_self_ns_[static_cast<size_t>(kind)];
  }
  /// Spans begun on another thread or ended without a matching Begin:
  /// either makes the nesting arithmetic meaningless.
  int64_t nesting_errors() const { return nesting_errors_; }
  bool open() const { return !stack_.empty(); }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    int64_t start_ns;
    int64_t child_ns;
    SpanKind kind;
    int tool;
    bool in_run;
  };
  struct Record {
    int64_t start_ns;
    int64_t dur_ns;
    SpanKind kind;
    int tool;
  };
  static size_t Index(SpanKind kind, int tool) {
    return static_cast<size_t>(kind) * kNumToolSlots +
           static_cast<size_t>(tool);
  }

  const bool keep_records_;
  const std::thread::id owner_;
  std::vector<Open> stack_;
  std::vector<SpanTotals> totals_;
  std::vector<int64_t> run_self_ns_;
  int64_t nesting_errors_ = 0;
  std::vector<Record> records_;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, SpanKind kind, int tool = kNoTool) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(kind, tool);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Forwarding PropertyTool decorator. Every public call is timed as a
/// span of the wrapped tool's slot. After Bind it swaps the tool's
/// registered listeners (AppendListeners) on the database for timing
/// proxies, preserving their notification order, and swaps the
/// originals back before Unbind, so the wrapped tool's own bookkeeping
/// sees the listeners it registered.
class TracedTool : public aspect::PropertyTool {
 public:
  TracedTool(std::unique_ptr<aspect::PropertyTool> inner, Tracer* tracer);
  ~TracedTool() override;

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<aspect::PropertyTool> Clone() const override;

  aspect::Status SetTargetFromDataset(
      const aspect::Database& ground_truth) override;
  aspect::Status RepairTarget() override;
  aspect::Status CheckTargetFeasible() const override;
  aspect::Status SaveTarget(std::ostream* out) const override;
  aspect::Status LoadTarget(std::istream* in) override;

  aspect::Status Bind(aspect::Database* db) override;
  void Unbind() override;
  bool bound() const override { return inner_->bound(); }
  aspect::Status Rebase(aspect::Database* db) override;
  void AppendListeners(
      std::vector<aspect::ModificationListener*>* out) override;

  double Error() const override;
  double ValidationPenalty(const aspect::Modification& mod) const override;
  using aspect::PropertyTool::ValidationPenaltyBatch;
  double ValidationPenaltyBatch(std::span<const aspect::Modification> mods,
                                double veto_cap) const override;
  aspect::AccessScope DeclaredScope() const override;
  aspect::Status Tweak(aspect::TweakContext* ctx) override;

  // Never registered itself (the wrapped tool's listeners are); these
  // forward in case a caller notifies the decorator directly.
  void OnApplied(const aspect::Modification& mod,
                 const std::vector<aspect::Value>& old_values,
                 aspect::TupleId new_tuple) override;
  void OnAppliedBatch(
      std::span<const aspect::Modification> mods,
      std::span<const std::vector<aspect::Value>> old_values,
      std::span<const aspect::TupleId> new_tuples) override;

 private:
  class ListenerProxy;
  void InstallProxies();
  void RestoreListeners();

  std::unique_ptr<aspect::PropertyTool> inner_;
  Tracer* tracer_;
  const int slot_;
  aspect::Database* db_ = nullptr;
  std::vector<std::unique_ptr<ListenerProxy>> proxies_;
};

/// Counts every modification applied to a database
/// (relational.applied_mods).
class ApplyCounter : public aspect::ModificationListener {
 public:
  void OnApplied(const aspect::Modification&, const std::vector<aspect::Value>&,
                 aspect::TupleId) override {
    ++mods_;
  }
  void OnAppliedBatch(std::span<const aspect::Modification> mods,
                      std::span<const std::vector<aspect::Value>>,
                      std::span<const aspect::TupleId>) override {
    mods_ += static_cast<int64_t>(mods.size());
  }
  int64_t mods() const { return mods_; }

 private:
  int64_t mods_ = 0;
};

}  // namespace perfbench
