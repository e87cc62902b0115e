#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr const char* kKindNames[] = {
    "scale",  "integrity", "targets", "run",    "csv_export", "eval",
    "csv_import", "query", "target",  "bind",   "unbind",     "rebase",
    "repair", "error",     "tweak",   "vote",   "listener",   "other",
};
static_assert(sizeof(kKindNames) / sizeof(kKindNames[0]) ==
              static_cast<size_t>(SpanKind::kNumKinds));

constexpr const char* kToolNames[kNumToolSlots] = {"", "linear", "coappear",
                                                   "pairwise"};

}  // namespace

const char* SpanKindName(SpanKind kind) {
  return kKindNames[static_cast<size_t>(kind)];
}

int ToolSlot(const std::string& tool_name) {
  for (int i = 1; i < kNumToolSlots; ++i) {
    if (tool_name == kToolNames[i]) return i;
  }
  return kNoTool;
}

const char* ToolSlotName(int slot) { return kToolNames[slot]; }

Tracer::Tracer(bool keep_records)
    : keep_records_(keep_records),
      owner_(std::this_thread::get_id()),
      totals_(static_cast<size_t>(SpanKind::kNumKinds) * kNumToolSlots),
      run_self_ns_(static_cast<size_t>(SpanKind::kNumKinds), 0) {}

void Tracer::Begin(SpanKind kind, int tool) {
  if (std::this_thread::get_id() != owner_) {
    ++nesting_errors_;
    return;
  }
  const bool in_run =
      kind == SpanKind::kRun || (!stack_.empty() && stack_.back().in_run);
  stack_.push_back(Open{NowNs(), 0, kind, tool, in_run});
}

void Tracer::End(int64_t mods) {
  const int64_t now = NowNs();
  if (std::this_thread::get_id() != owner_ || stack_.empty()) {
    ++nesting_errors_;
    return;
  }
  const Open span = stack_.back();
  stack_.pop_back();
  const int64_t dur = now - span.start_ns;
  const int64_t self = dur - span.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  SpanTotals& t = totals_[Index(span.kind, span.tool)];
  t.total_ns += dur;
  t.self_ns += self;
  ++t.calls;
  t.mods += mods;
  if (span.in_run) run_self_ns_[static_cast<size_t>(span.kind)] += self;
  if (keep_records_) {
    records_.push_back(Record{span.start_ns, dur, span.kind, span.tool});
  }
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t first = records_.empty() ? 0 : records_.front().start_ns;
  for (const Record& r : records_) first = std::min(first, r.start_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const char* tool = ToolSlotName(r.tool);
    std::fprintf(f,
                 "%s{\"name\":\"%s%s%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}",
                 i == 0 ? "" : ",\n", tool, *tool ? "." : "",
                 SpanKindName(r.kind), *tool ? "tool" : "phase",
                 static_cast<double>(r.start_ns - first) / 1e3,
                 static_cast<double>(r.dur_ns) / 1e3);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------

class TracedTool::ListenerProxy : public aspect::ModificationListener {
 public:
  ListenerProxy(aspect::ModificationListener* target, Tracer* tracer,
                int slot, bool counts_mods)
      : target_(target),
        tracer_(tracer),
        slot_(slot),
        counts_mods_(counts_mods) {}

  aspect::ModificationListener* target() const { return target_; }

  void OnApplied(const aspect::Modification& mod,
                 const std::vector<aspect::Value>& old_values,
                 aspect::TupleId new_tuple) override {
    tracer_->Begin(SpanKind::kToolListener, slot_);
    target_->OnApplied(mod, old_values, new_tuple);
    tracer_->End(counts_mods_ ? 1 : 0);
  }

  void OnAppliedBatch(
      std::span<const aspect::Modification> mods,
      std::span<const std::vector<aspect::Value>> old_values,
      std::span<const aspect::TupleId> new_tuples) override {
    tracer_->Begin(SpanKind::kToolListener, slot_);
    target_->OnAppliedBatch(mods, old_values, new_tuples);
    tracer_->End(counts_mods_ ? static_cast<int64_t>(mods.size()) : 0);
  }

 private:
  aspect::ModificationListener* const target_;
  Tracer* const tracer_;
  const int slot_;
  const bool counts_mods_;
};

TracedTool::TracedTool(std::unique_ptr<aspect::PropertyTool> inner,
                       Tracer* tracer)
    : inner_(std::move(inner)),
      tracer_(tracer),
      slot_(ToolSlot(inner_->name())) {}

TracedTool::~TracedTool() {
  if (inner_->bound()) Unbind();
}

std::unique_ptr<aspect::PropertyTool> TracedTool::Clone() const {
  std::unique_ptr<aspect::PropertyTool> copy = inner_->Clone();
  if (copy == nullptr) return nullptr;
  return std::make_unique<TracedTool>(std::move(copy), tracer_);
}

aspect::Status TracedTool::SetTargetFromDataset(
    const aspect::Database& ground_truth) {
  Span s(tracer_, SpanKind::kToolTarget, slot_);
  return inner_->SetTargetFromDataset(ground_truth);
}

aspect::Status TracedTool::RepairTarget() {
  Span s(tracer_, SpanKind::kToolRepair, slot_);
  return inner_->RepairTarget();
}

aspect::Status TracedTool::CheckTargetFeasible() const {
  Span s(tracer_, SpanKind::kToolOther, slot_);
  return inner_->CheckTargetFeasible();
}

aspect::Status TracedTool::SaveTarget(std::ostream* out) const {
  Span s(tracer_, SpanKind::kToolOther, slot_);
  return inner_->SaveTarget(out);
}

aspect::Status TracedTool::LoadTarget(std::istream* in) {
  Span s(tracer_, SpanKind::kToolTarget, slot_);
  return inner_->LoadTarget(in);
}

aspect::Status TracedTool::Bind(aspect::Database* db) {
  Span s(tracer_, SpanKind::kToolBind, slot_);
  aspect::Status st = inner_->Bind(db);
  if (st.ok()) {
    db_ = db;
    InstallProxies();
  }
  return st;
}

void TracedTool::Unbind() {
  Span s(tracer_, SpanKind::kToolUnbind, slot_);
  RestoreListeners();
  inner_->Unbind();
  db_ = nullptr;
}

aspect::Status TracedTool::Rebase(aspect::Database* db) {
  Span s(tracer_, SpanKind::kToolRebase, slot_);
  RestoreListeners();
  aspect::Status st = inner_->Rebase(db);
  if (st.ok()) {
    db_ = db;
    InstallProxies();
  }
  return st;
}

void TracedTool::AppendListeners(
    std::vector<aspect::ModificationListener*>* out) {
  // What is registered on the database while bound: the proxies.
  for (const auto& p : proxies_) out->push_back(p.get());
}

double TracedTool::Error() const {
  Span s(tracer_, SpanKind::kToolError, slot_);
  return inner_->Error();
}

double TracedTool::ValidationPenalty(const aspect::Modification& mod) const {
  Span s(tracer_, SpanKind::kToolVote, slot_);
  return inner_->ValidationPenalty(mod);
}

double TracedTool::ValidationPenaltyBatch(
    std::span<const aspect::Modification> mods, double veto_cap) const {
  Span s(tracer_, SpanKind::kToolVote, slot_);
  return inner_->ValidationPenaltyBatch(mods, veto_cap);
}

aspect::AccessScope TracedTool::DeclaredScope() const {
  return inner_->DeclaredScope();
}

aspect::Status TracedTool::Tweak(aspect::TweakContext* ctx) {
  Span s(tracer_, SpanKind::kToolTweak, slot_);
  return inner_->Tweak(ctx);
}

void TracedTool::OnApplied(const aspect::Modification& mod,
                           const std::vector<aspect::Value>& old_values,
                           aspect::TupleId new_tuple) {
  inner_->OnApplied(mod, old_values, new_tuple);
}

void TracedTool::OnAppliedBatch(
    std::span<const aspect::Modification> mods,
    std::span<const std::vector<aspect::Value>> old_values,
    std::span<const aspect::TupleId> new_tuples) {
  inner_->OnAppliedBatch(mods, old_values, new_tuples);
}

void TracedTool::InstallProxies() {
  std::vector<aspect::ModificationListener*> mine;
  inner_->AppendListeners(&mine);
  // Walk the database's registration order so the proxies notify in
  // the same relative order as the listeners they replace.
  const std::vector<aspect::ModificationListener*> registered =
      db_->listeners();
  for (aspect::ModificationListener* l : registered) {
    if (std::find(mine.begin(), mine.end(), l) == mine.end()) continue;
    proxies_.push_back(std::make_unique<ListenerProxy>(
        l, tracer_, slot_, /*counts_mods=*/l == inner_.get()));
    db_->RemoveListener(l);
    db_->AddListener(proxies_.back().get());
  }
}

void TracedTool::RestoreListeners() {
  if (db_ == nullptr) return;
  for (const auto& p : proxies_) {
    db_->RemoveListener(p.get());
    db_->AddListener(p->target());
  }
  proxies_.clear();
}

}  // namespace perfbench
