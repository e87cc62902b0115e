// End-to-end benchmark of the ASPECT pipeline (the paper's Sec. VI
// pipeline, driven through the library's public API):
//
//   GenerateDataset/Materialize            (set-up: the user's inputs)
//   SizeScaler::Scale -> CheckIntegrity -> Coordinator targets + Run
//     -> CheckIntegrity -> ExportCsv       (pipeline_s)
//   fresh-tool Error(), Q1-Q4 QueryError, ImportCsv   (eval_s)
//
// Usage:
//   aspect_pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//       [--work-dir DIR] [--size-factor F] [--chrome-trace FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates
// untraced and traced repetitions and prints the per-layer metrics from
// the traced ones. The last line of stdout is one JSON object. See
// README.md next to this file for the workloads and the metric map.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "aspect/coordinator.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "query/queries.h"
#include "relational/csv.h"
#include "relational/fingerprint.h"
#include "relational/integrity.h"
#include "scaler/size_scaler.h"
#include "trace.h"
#include "workload/generator.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using aspect::Database;
using aspect::Status;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string name;
  aspect::DatasetBlueprint (*blueprint)(double scale);
  /// Blueprint scales. The last is the headline: every end-to-end
  /// metric except time_slope is read there; the others only feed
  /// time_slope.
  std::vector<double> scales;
  /// Ground-truth snapshot; the empirical input is always D1.
  int target_snapshot;
  std::string scaler;
  /// Tool order; empty = the paper's No-Tweak baseline (targets are
  /// still extracted and Coordinator::Run is called with no steps).
  std::vector<std::string> order;
  int iterations;
  bool route_votes;
  int gen_threads;
  /// Datasets per run, generated from the seed; round k runs on dataset
  /// k mod datasets. Douban's small point runs few tuples through three
  /// passes, so its time, and with it time_slope, depends on the data
  /// more than on timing noise: there every estimate averages three
  /// datasets.
  int datasets;
  /// Headline pipeline runs per round; only the first is evaluated.
  /// No-Tweak's evaluation costs about three of its pipelines, so it
  /// runs three to sample pipeline_s more often than eval_s.
  int headline_reps;
};

constexpr int kSourceSnapshot = 1;

std::vector<WorkloadSpec> Workloads() {
  return {
      {"clp_xiami_sweep", aspect::XiamiLike, {1, 2, 4}, 4, "Rand",
       {"coappear", "linear", "pairwise"}, 1, false, 1, 1, 1},
      {"notweak_xiami_large", aspect::XiamiLike, {2, 8}, 4, "Dscaler", {},
       1, false, 4, 1, 3},
      {"iter_douban_routed", aspect::DoubanMovieLike, {0.5, 2}, 6,
       "Dscaler", {"coappear", "linear", "pairwise"}, 3, true, 1, 3, 1},
  };
}

std::unique_ptr<aspect::SizeScaler> MakeScaler(const std::string& name) {
  if (name == "Rand") return std::make_unique<aspect::RandScaler>();
  return std::make_unique<aspect::DscalerScaler>();
}

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  double size_factor = 1.0;
  std::string chrome_trace;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o->seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1, got '%s'\n", v.c_str());
        return false;
      }
      o->trace = v == "1";
    } else if (a == "--work-dir") {
      o->work_dir = v;
    } else if (a == "--size-factor") {
      o->size_factor = std::strtod(v.c_str(), &end);
    } else if (a == "--chrome-trace") {
      o->chrome_trace = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value '%s' for %s\n", v.c_str(), a.c_str());
      return false;
    }
  }
  if (!(o->seconds > 0) || !(o->size_factor > 0) || o->workload.empty()) {
    std::fprintf(stderr, "need --workload, --seconds > 0, --size-factor > 0\n");
    return false;
  }
  return true;
}

// ------------------------------------------------------------------- tally

/// Attempted / failed operations: every library call that returns a
/// Status and every correctness check counts as one operation.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;

  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  bool Op(const Status& st, const std::string& what) {
    return Check(st.ok(), what + ": " + st.ToString());
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One value measured in a run, tagged with the dataset it ran on.
struct Sample {
  int dataset;
  double value;
};

/// A run's estimate of a value: the median over the samples on each of
/// its datasets, averaged over the datasets, so every dataset weighs the
/// same however many rounds fit in --seconds.
double Estimate(const std::vector<Sample>& samples, int datasets) {
  double sum = 0;
  int n = 0;
  for (int d = 0; d < datasets; ++d) {
    std::vector<double> v;
    for (const Sample& x : samples) {
      if (x.dataset == d) v.push_back(x.value);
    }
    if (v.empty()) continue;
    sum += Median(std::move(v));
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

/// Least-squares slope of log(y) against log(x).
double LogLogSlope(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = x.size();
  if (n < 2) return 0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += std::log(x[i]);
    my += std::log(std::max(y[i], 1e-12));
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = std::log(x[i]) - mx;
    sxy += dx * (std::log(std::max(y[i], 1e-12)) - my);
    sxx += dx * dx;
  }
  return sxx > 0 ? sxy / sxx : 0;
}

/// FNV-1a content hash over live tuples only: tuples in id order, FK
/// values replaced by the referenced tuple's rank among its table's live
/// tuples. Tweaking deletes and inserts tuples, so the output carries
/// tombstones that ImportCsv drops while densifying ids; this hash is
/// the content a CSV round trip must keep.
uint64_t LiveContentHash(const Database& db) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  std::map<std::string, int> index;
  std::vector<std::vector<int64_t>> rank(static_cast<size_t>(db.num_tables()));
  for (int t = 0; t < db.num_tables(); ++t) {
    const aspect::Table& table = db.table(t);
    index[table.name()] = t;
    std::vector<int64_t>& r = rank[static_cast<size_t>(t)];
    r.assign(static_cast<size_t>(table.NumSlots()), -1);
    int64_t next = 0;
    table.ForEachLive([&](aspect::TupleId id) { r[static_cast<size_t>(id)] = next++; });
  }
  for (int t = 0; t < db.num_tables(); ++t) {
    const aspect::Table& table = db.table(t);
    for (const char c : table.name()) mix(static_cast<uint8_t>(c));
    mix(static_cast<uint64_t>(table.NumTuples()));
    std::vector<const std::vector<int64_t>*> fk_rank;
    for (const aspect::ColumnSpec& col : table.spec().columns) {
      const auto it = index.find(col.ref_table);
      fk_rank.push_back(col.type == aspect::ColumnType::kForeignKey &&
                                it != index.end()
                            ? &rank[static_cast<size_t>(it->second)]
                            : nullptr);
    }
    table.ForEachLive([&](aspect::TupleId id) {
      for (int c = 0; c < table.num_columns(); ++c) {
        const aspect::Column& col = table.column(c);
        const aspect::CellState state = col.state(id);
        mix(static_cast<uint64_t>(state));
        if (state != aspect::CellState::kValue) continue;
        switch (col.type()) {
          case aspect::ColumnType::kForeignKey: {
            const std::vector<int64_t>* r = fk_rank[static_cast<size_t>(c)];
            const int64_t v = col.GetInt(id);
            mix(static_cast<uint64_t>(
                r != nullptr && v >= 0 && v < static_cast<int64_t>(r->size())
                    ? (*r)[static_cast<size_t>(v)]
                    : -2));
            break;
          }
          case aspect::ColumnType::kInt64:
            mix(static_cast<uint64_t>(col.GetInt(id)));
            break;
          case aspect::ColumnType::kDouble: {
            const double d = col.GetDouble(id);
            uint64_t bits = 0;
            std::memcpy(&bits, &d, sizeof(bits));
            mix(bits);
            break;
          }
          case aspect::ColumnType::kString:
            mix(std::hash<std::string>()(col.GetString(id)));
            break;
        }
      }
    });
  }
  return h;
}

// ------------------------------------------------------------------ set-up

struct Inputs {
  std::unique_ptr<Database> source;
  std::unique_ptr<Database> truth;
  std::vector<int64_t> target_sizes;
  int64_t tuples = 0;
  uint64_t seed = 0;
  double generate_s = 0;
  double materialize_s = 0;
};

/// Seed of dataset `d` of a run: a pure function of the benchmark seed.
uint64_t DatasetSeed(uint64_t seed, int d) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(d) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0xFFFFFFFFull;
}

/// Set-up: generates one point's source and truth snapshots.
bool Setup(const WorkloadSpec& w, double scale, uint64_t seed, Tally* tally,
           Inputs* in) {
  const aspect::GenOptions gen{w.gen_threads};
  in->seed = seed;
  auto t0 = Clock::now();
  auto snaps = aspect::GenerateDataset(w.blueprint(scale), seed, gen);
  in->generate_s = SecondsSince(t0);
  if (!tally->Op(snaps.status(), "GenerateDataset")) return false;
  t0 = Clock::now();
  auto source = snaps.ValueOrDie().Materialize(kSourceSnapshot, gen);
  auto truth = snaps.ValueOrDie().Materialize(w.target_snapshot, gen);
  in->materialize_s = SecondsSince(t0);
  if (!tally->Op(source.status(), "Materialize source") ||
      !tally->Op(truth.status(), "Materialize truth")) {
    return false;
  }
  in->source = std::move(source).ValueOrDie();
  in->truth = std::move(truth).ValueOrDie();
  in->target_sizes = snaps.ValueOrDie().SnapshotSizes(w.target_snapshot);
  for (const int64_t n : in->target_sizes) in->tuples += n;
  return true;
}

// ---------------------------------------------------------------- pipeline

/// Per-layer numbers of one traced point run.
using LayerMap = std::map<std::string, double>;

struct PointRun {
  int dataset = 0;
  double scale_s = 0;
  double integrity_s = 0;
  double targets_s = 0;
  double run_s = 0;
  double export_s = 0;
  double pipeline_s = 0;
  double eval_s = 0;
  double import_s = 0;
  double query_s = 0;
  double final_error = 0;
  double query_error = 0;
  uint64_t output_hash = 0;
  bool evaluated = false;
  bool ok = false;
  LayerMap layers;  // traced runs only
};

template <typename F>
auto Timed(Tracer* tracer, SpanKind kind, double* seconds, F&& f) {
  const auto t0 = Clock::now();
  Span span(tracer, kind);
  auto r = f();
  *seconds += SecondsSince(t0);
  return r;
}

std::vector<std::unique_ptr<aspect::PropertyTool>> MakeTools(
    const aspect::Schema& schema, Tracer* tracer) {
  std::vector<std::unique_ptr<aspect::PropertyTool>> tools;
  tools.push_back(std::make_unique<aspect::LinearPropertyTool>(schema));
  tools.push_back(std::make_unique<aspect::CoappearPropertyTool>(schema));
  tools.push_back(std::make_unique<aspect::PairwisePropertyTool>(schema));
  if (tracer != nullptr) {
    for (auto& t : tools) t = std::make_unique<TracedTool>(std::move(t), tracer);
  }
  return tools;
}

void FillLayers(const Tracer& tr, const aspect::RunReport& report,
                int64_t applied_mods, PointRun* r) {
  LayerMap& m = r->layers;
  const auto secs = [](int64_t ns) { return static_cast<double>(ns) / 1e9; };
  m["scaler.scale_s"] = r->scale_s;
  m["relational.integrity_s"] = r->integrity_s;
  m["relational.csv_export_s"] = r->export_s;
  m["relational.csv_import_s"] = r->import_s;
  m["relational.applied_mods"] = static_cast<double>(applied_mods);
  m["query.eval_s"] = r->query_s;
  m["aspect.targets_s"] = r->targets_s;
  m["aspect.run_s"] = r->run_s;
  m["aspect.self_s"] = secs(tr.totals(SpanKind::kRun, kNoTool).self_ns);
  m["aspect.votes_total"] = static_cast<double>(report.votes_total);
  m["aspect.votes_skipped"] = static_cast<double>(report.votes_skipped);
  m["aspect.vote_skip_ratio"] =
      report.votes_total > 0 ? static_cast<double>(report.votes_skipped) /
                                   static_cast<double>(report.votes_total)
                             : 0.0;
  m["aspect.route_index_build_s"] = report.route_index_build_seconds;
  for (int slot = 1; slot < kNumToolSlots; ++slot) {
    const std::string p = std::string("properties.") + ToolSlotName(slot) + ".";
    const SpanTotals& lis = tr.totals(SpanKind::kToolListener, slot);
    const SpanTotals& vote = tr.totals(SpanKind::kToolVote, slot);
    m[p + "listener_s"] = secs(lis.total_ns);
    m[p + "listener_calls"] = static_cast<double>(lis.calls);
    m[p + "listener_us_per_mod"] =
        lis.mods > 0 ? static_cast<double>(lis.total_ns) / 1e3 /
                           static_cast<double>(lis.mods)
                     : 0.0;
    m[p + "bind_s"] = secs(tr.totals(SpanKind::kToolBind, slot).total_ns);
    m[p + "tweak_self_s"] = secs(tr.totals(SpanKind::kToolTweak, slot).self_ns);
    m[p + "vote_s"] = secs(vote.total_ns);
    m[p + "vote_calls"] = static_cast<double>(vote.calls);
    m[p + "target_s"] = secs(tr.totals(SpanKind::kToolTarget, slot).total_ns);
    m[p + "error_s"] = secs(tr.totals(SpanKind::kToolError, slot).total_ns);
    int64_t applied = 0, vetoed = 0, forced = 0;
    for (const aspect::ToolReport& s : report.steps) {
      if (s.tool != ToolSlotName(slot)) continue;
      applied += s.applied;
      vetoed += s.vetoed;
      forced += s.forced;
    }
    m[p + "applied"] = static_cast<double>(applied);
    m[p + "vetoed"] = static_cast<double>(vetoed);
    m[p + "forced"] = static_cast<double>(forced);
    m[p + "accept_ratio"] =
        applied + vetoed > 0
            ? static_cast<double>(applied) / static_cast<double>(applied + vetoed)
            : 0.0;
  }
}

/// Prints the traced run's decomposition of aspect.run_s, each part read
/// from the self times of its own span kinds inside Run, and checks it
/// twice: the parts must add up exactly (integer nanoseconds) to the Run
/// span, which holds only if every span inside Run nests properly and is
/// of a kind counted here; and the Run span must agree, within 1 ms +
/// 1%, with aspect.run_s as the pipeline clocks it around the call.
void CheckSelfTimes(const Tracer& tr, double run_s, Tally* tally) {
  const int64_t run_ns = tr.totals(SpanKind::kRun, kNoTool).total_ns;
  const int64_t coordinator = tr.run_self_ns(SpanKind::kRun);
  const int64_t tweak = tr.run_self_ns(SpanKind::kToolTweak);
  const int64_t vote = tr.run_self_ns(SpanKind::kToolVote);
  const int64_t listener = tr.run_self_ns(SpanKind::kToolListener);
  // Tool calls Run makes outside Tweak (bind, repair, error, unbind).
  int64_t other = 0;
  for (const SpanKind k :
       {SpanKind::kToolTarget, SpanKind::kToolBind, SpanKind::kToolUnbind,
        SpanKind::kToolRebase, SpanKind::kToolRepair, SpanKind::kToolError,
        SpanKind::kToolOther}) {
    other += tr.run_self_ns(k);
  }
  const int64_t sum = coordinator + tweak + vote + listener + other;
  std::printf(
      "  self-time check: aspect.self_s %.6f + tweak_self %.6f + vote %.6f + "
      "listener %.6f + other tool calls %.6f = %.6f s; Run span %.6f s; "
      "aspect.run_s %.6f s\n",
      coordinator / 1e9, tweak / 1e9, vote / 1e9, listener / 1e9, other / 1e9,
      sum / 1e9, run_ns / 1e9, run_s);
  tally->Check(sum == run_ns && tr.nesting_errors() == 0 && !tr.open(),
               "span self times inside Run add up to the Run span");
  tally->Check(std::abs(run_ns / 1e9 - run_s) <= 1e-3 + 0.01 * run_s,
               "Run span agrees with the clocked aspect.run_s");
}

/// The paper's quality evaluation of a pipeline output: fresh tools
/// measure the three Sec. VI-C1 property errors, the Q1-Q4 suite runs
/// against the truth, and the CSV output is read back. Returns the
/// re-imported database, or null on a failure.
std::unique_ptr<Database> Evaluate(const Inputs& in, Database* scaled,
                                   const std::string& csv_dir, Tracer* tracer,
                                   Tally* tally, PointRun* r) {
  const aspect::Schema& schema = in.truth->schema();
  for (auto& tool : MakeTools(schema, tracer)) {
    const std::string name = tool->name();
    if (!tally->Op(tool->SetTargetFromDataset(*in.truth), name + " target") ||
        !tally->Op(tool->Bind(scaled), name + " bind")) {
      return nullptr;
    }
    const bool repaired = tally->Op(tool->RepairTarget(), name + " repair");
    r->final_error += tool->Error();
    tool->Unbind();
    if (!repaired) return nullptr;
  }
  auto suite = aspect::QuerySuiteFor(schema);
  if (!tally->Op(suite.status(), "QuerySuiteFor")) return nullptr;
  const auto q0 = Clock::now();
  {
    Span q_span(tracer, SpanKind::kQuery);
    for (const aspect::NamedQuery& q : suite.ValueOrDie()) {
      auto err = aspect::QueryError(q, *in.truth, *scaled);
      if (!tally->Op(err.status(), "QueryError " + q.name)) return nullptr;
      r->query_error += err.ValueOrDie();
    }
  }
  r->query_s = SecondsSince(q0);
  r->query_error /= static_cast<double>(suite.ValueOrDie().size());
  auto imported = Timed(tracer, SpanKind::kCsvImport, &r->import_s,
                        [&] { return aspect::ImportCsv(schema, csv_dir); });
  if (!tally->Op(imported.status(), "ImportCsv")) return nullptr;
  return std::move(imported).ValueOrDie();
}

/// One pass of the pipeline over one point's inputs, then (for the
/// headline point) the evaluation.
PointRun RunPoint(const WorkloadSpec& w, const Inputs& in, bool evaluate,
                  const std::string& csv_dir, Tracer* tracer, Tally* tally) {
  PointRun r;
  const aspect::GenOptions gen{w.gen_threads};
  aspect::IntegrityOptions verify;
  verify.threads = w.gen_threads;
  const aspect::Schema& schema = in.truth->schema();
  const auto t0 = Clock::now();

  std::unique_ptr<aspect::SizeScaler> scaler = MakeScaler(w.scaler);
  auto scaled_or = Timed(tracer, SpanKind::kScale, &r.scale_s, [&] {
    return scaler->Scale(*in.source, in.target_sizes, in.seed, gen);
  });
  if (!tally->Op(scaled_or.status(), "SizeScaler::Scale")) return r;
  std::unique_ptr<Database> scaled = std::move(scaled_or).ValueOrDie();
  if (!tally->Op(Timed(tracer, SpanKind::kIntegrity, &r.integrity_s,
                       [&] { return aspect::CheckIntegrity(*scaled, verify); }),
                 "integrity after scaling")) {
    return r;
  }

  aspect::Coordinator coordinator;
  for (auto& t : MakeTools(schema, tracer)) coordinator.AddTool(std::move(t));
  if (!tally->Op(Timed(tracer, SpanKind::kTargets, &r.targets_s,
                       [&] { return coordinator.SetTargetsFromDataset(*in.truth); }),
                 "SetTargetsFromDataset")) {
    return r;
  }
  std::vector<int> order;
  for (const std::string& name : w.order) order.push_back(coordinator.FindTool(name));
  aspect::CoordinatorOptions opts;
  opts.iterations = w.iterations;
  opts.seed = in.seed + 1;
  if (w.route_votes) opts.route_votes = aspect::RouteVotes::kOn;
  ApplyCounter counter;
  if (tracer != nullptr) scaled->AddListener(&counter);
  auto report_or = Timed(tracer, SpanKind::kRun, &r.run_s, [&] {
    return coordinator.Run(scaled.get(), order, opts);
  });
  if (tracer != nullptr) scaled->RemoveListener(&counter);
  if (!tally->Op(report_or.status(), "Coordinator::Run")) return r;
  if (!tally->Op(Timed(tracer, SpanKind::kIntegrity, &r.integrity_s,
                       [&] { return aspect::CheckIntegrity(*scaled, verify); }),
                 "integrity after tweaking")) {
    return r;
  }
  if (!tally->Op(Timed(tracer, SpanKind::kCsvExport, &r.export_s,
                       [&] { return aspect::ExportCsv(*scaled, csv_dir); }),
                 "ExportCsv")) {
    return r;
  }
  r.pipeline_s = SecondsSince(t0);

  bool sizes_ok = true;
  for (int t = 0; t < scaled->num_tables(); ++t) {
    sizes_ok = sizes_ok && scaled->table(t).NumTuples() ==
                               in.target_sizes[static_cast<size_t>(t)];
  }
  tally->Check(sizes_ok, "output table sizes equal the target snapshot's");
  r.output_hash = aspect::ContentHash(*scaled);
  if (evaluate) {
    const auto e0 = Clock::now();
    std::unique_ptr<Database> imported;
    {
      Span eval_span(tracer, SpanKind::kEval);
      imported = Evaluate(in, scaled.get(), csv_dir, tracer, tally, &r);
    }
    r.eval_s = SecondsSince(e0);
    r.evaluated = true;
    if (imported == nullptr) return r;
    tally->Check(LiveContentHash(*imported) == LiveContentHash(*scaled),
                 "CSV round trip keeps the live-tuple content hash");
  }
  if (tracer != nullptr) {
    FillLayers(*tracer, report_or.ValueOrDie(), counter.mods(), &r);
    CheckSelfTimes(*tracer, r.run_s, tally);
  }
  r.ok = true;
  return r;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void PrintJson(bool correct, const Tally& tally, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  for (size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::string LayerUnit(const std::string& name) {
  const auto ends = [&](const char* s) {
    const std::string suf = s;
    return name.size() >= suf.size() &&
           name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
  };
  if (name.rfind("quality.", 0) == 0) return "error";
  if (ends("_us_per_mod")) return "us";
  if (ends("_s")) return "s";
  if (ends("_ratio") || ends("_slope")) return "ratio";
  return "count";
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) return 2;
  const std::vector<WorkloadSpec> all = Workloads();
  const auto wit = std::find_if(all.begin(), all.end(),
                                [&](const WorkloadSpec& w) { return w.name == o.workload; });
  if (wit == all.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *wit;
  std::printf("machine: nproc=%ld hardware_threads=%u compiler=%s build=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("workload: %s seed=%llu seconds=%g trace=%d size_factor=%g\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, o.size_factor);
  const std::string csv_dir =
      o.work_dir + "/" + w.name + "-" + std::to_string(getpid());
  Tally tally;

  // Set-up comes first: every point of every dataset is generated once
  // (dataset d from DatasetSeed(seed, d)) and reused by every round, as
  // RunPoint only reads its Inputs.
  //
  // Measurement rounds follow until the next one would pass --seconds
  // (at least kMinRounds, and at least one per dataset). Round k
  // re-generates the headline inputs of dataset k mod w.datasets (the
  // same bytes), timing setup_s alongside the pipelines, then runs every
  // point on that dataset, the headline w.headline_reps times. So a
  // run's rounds, and the runs of two commits at one seed, time the same
  // inputs however many rounds fit. With --trace 1 every pipeline run is
  // made untraced and traced, in alternating order, and the difference
  // is the tracing overhead.
  constexpr int kMinRounds = 2;
  const size_t np = w.scales.size();
  std::vector<std::vector<PointRun>> plain(np), traced(np);
  std::vector<Sample> setup_s, generate_s, materialize_s;  // headline point
  std::vector<int64_t> tuples(np, 0);
  std::vector<std::vector<Inputs>> inputs(static_cast<size_t>(w.datasets));
  for (std::vector<Inputs>& points : inputs) points.resize(np);
  // (Re)generates one point's inputs; `timed` records a setup_s sample.
  const auto setup = [&](int d, size_t p, bool timed) {
    Inputs& in = inputs[static_cast<size_t>(d)][p];
    in = Inputs{};  // frees the previous copy first
    const auto s0 = Clock::now();
    if (!Setup(w, w.scales[p] * o.size_factor, DatasetSeed(o.seed, d), &tally,
               &in)) {
      return;
    }
    if (timed) {
      setup_s.push_back({d, SecondsSince(s0)});
      generate_s.push_back({d, in.generate_s});
      materialize_s.push_back({d, in.materialize_s});
    }
    tuples[p] = in.tuples;
  };
  bool chrome_pending = !o.chrome_trace.empty();
  const auto m0 = Clock::now();
  for (int d = 0; d < w.datasets && tally.failed == 0; ++d) {
    for (size_t p = 0; p < np && tally.failed == 0; ++p) setup(d, p, false);
  }
  std::printf("  set-up %.2fs\n", SecondsSince(m0));
  // Output hash of the first run of each (dataset, point): every later
  // run on the same inputs, traced or not, must produce the same bytes.
  std::map<std::pair<int, size_t>, uint64_t> first_hash;
  for (int round = 0; tally.failed == 0; ++round) {
    const auto r0 = Clock::now();
    const int dataset = round % w.datasets;
    setup(dataset, np - 1, true);
    for (size_t p = 0; p < np && tally.failed == 0; ++p) {
      const bool headline = p + 1 == np;
      const Inputs& in = inputs[static_cast<size_t>(dataset)][p];
      const int reps = headline ? w.headline_reps : 1;
      for (int rep = 0; rep < reps && tally.failed == 0; ++rep) {
        for (int half = 0; half < (o.trace ? 2 : 1); ++half) {
          const bool with_trace = o.trace && (half == 0) == (round % 2 == 1);
          const bool keep = with_trace && headline && chrome_pending;
          Tracer tracer(keep);
          PointRun r = RunPoint(w, in, headline && rep == 0, csv_dir,
                                with_trace ? &tracer : nullptr, &tally);
          r.dataset = dataset;
          if (keep) {
            chrome_pending = false;
            tally.Check(tracer.WriteChromeTrace(o.chrome_trace),
                        "write Chrome trace " + o.chrome_trace);
          }
          if (r.ok) {
            const auto it = first_hash.emplace(std::make_pair(dataset, p),
                                               r.output_hash).first;
            tally.Check(r.output_hash == it->second,
                        "output ContentHash repeats on the same dataset");
          }
          (with_trace ? traced[p] : plain[p]).push_back(std::move(r));
        }
        if (o.trace && plain[p].back().ok && traced[p].back().ok) {
          tally.Check(plain[p].back().output_hash == traced[p].back().output_hash,
                      "traced output ContentHash equals the untraced one");
        }
      }
    }
    const double round_s = SecondsSince(r0);
    if (tally.failed == 0) {
      std::printf("  round %d dataset %d %.2fs: setup_s=%.4f headline "
                  "pipeline_s", round, dataset, round_s, setup_s.back().value);
      for (size_t k = plain.back().size() - w.headline_reps;
           k < plain.back().size(); ++k) {
        std::printf(" %.4f", plain.back()[k].pipeline_s);
      }
      const PointRun& h = plain.back()[plain.back().size() - w.headline_reps];
      std::printf(" run_s=%.4f eval_s=%.4f\n", h.run_s, h.eval_s);
    }
    if (round + 1 >= std::max(kMinRounds, w.datasets) &&
        SecondsSince(m0) + round_s > o.seconds) {
      break;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(csv_dir, ec);

  const auto est = [&](const std::vector<PointRun>& runs,
                       const std::function<double(const PointRun&)>& value) {
    std::vector<Sample> v;
    for (const PointRun& r : runs) {
      if (r.ok) v.push_back({r.dataset, value(r)});
    }
    return Estimate(v, w.datasets);
  };
  // time_slope fits aspect.run_s, except on the No-Tweak baseline, whose
  // Run is empty: there it fits pipeline_s.
  double PointRun::*slope_of = w.order.empty() ? &PointRun::pipeline_s
                                               : &PointRun::run_s;
  std::vector<double> xs, ys;
  for (size_t p = 0; p < np; ++p) {
    xs.push_back(static_cast<double>(tuples[p]));
    ys.push_back(est(plain[p], slope_of));
    std::printf("  point scale=%g tuples=%lld rounds=%zu pipeline_s=%.4f "
                "run_s=%.4f\n",
                w.scales[p] * o.size_factor, static_cast<long long>(tuples[p]),
                plain[p].size(), est(plain[p], &PointRun::pipeline_s),
                est(plain[p], &PointRun::run_s));
  }
  // The evaluated headline runs (the first of each round): eval_s, the
  // quality values and the per-layer metrics, which include the
  // evaluation's tool calls, are read from these.
  const auto evaluated = [](const std::vector<PointRun>& runs) {
    std::vector<PointRun> v;
    for (const PointRun& r : runs) {
      if (r.evaluated) v.push_back(r);
    }
    return v;
  };
  const std::vector<PointRun>& head = plain.back();
  const std::vector<PointRun> head_eval = evaluated(head);
  const double pipeline_s = est(head, &PointRun::pipeline_s);
  const double final_error = est(head_eval, &PointRun::final_error);
  const double query_error = est(head_eval, &PointRun::query_error);

  std::vector<Metric> out;
  if (!o.trace) {
    out = {
        {"pipeline_s", "s", pipeline_s},
        {"tuples_per_s", "1/s",
         pipeline_s > 0 ? static_cast<double>(tuples.back()) / pipeline_s
                        : 0},
        {"setup_s", "s", Estimate(setup_s, w.datasets)},
        {"eval_s", "s", est(head_eval, &PointRun::eval_s)},
        {"peak_rss_mb", "MB", PeakRssMb()},
        {"time_slope", "ratio", LogLogSlope(xs, ys)},
    };
    // Quality is reported here too, but is not an end-to-end metric of
    // the JSON line: it varies across seeds more than any bound allows.
    std::printf("  %-44s %16.6f %s\n", "final_error", final_error, "error");
    std::printf("  %-44s %16.6f %s\n", "query_error", query_error, "error");
  } else {
    const std::vector<PointRun>& theads = traced.back();
    const std::vector<PointRun> theads_eval = evaluated(theads);
    LayerMap layers;
    if (!theads_eval.empty()) {
      for (const auto& kv : theads_eval.front().layers) {
        const std::string& name = kv.first;
        layers[name] =
            est(theads_eval, [&](const PointRun& r) { return r.layers.at(name); });
      }
    }
    layers["workload.generate_s"] = Estimate(generate_s, w.datasets);
    layers["workload.materialize_s"] = Estimate(materialize_s, w.datasets);
    layers["quality.final_error"] = final_error;
    layers["quality.query_error"] = query_error;
    for (int slot = 1; slot < kNumToolSlots; ++slot) {
      // Growth of each Statistics Updater's cost across the points.
      const std::string name =
          std::string("properties.") + ToolSlotName(slot) + ".listener_s";
      std::vector<double> ly;
      for (size_t p = 0; p < np; ++p) {
        ly.push_back(est(traced[p], [&](const PointRun& r) { return r.layers.at(name); }));
      }
      layers[std::string("properties.") + ToolSlotName(slot) + ".listener_slope"] =
          *std::min_element(ly.begin(), ly.end()) > 0 ? LogLogSlope(xs, ly) : 0.0;
    }
    // Overhead from the adjacent untraced/traced pairs.
    std::vector<Sample> overhead;
    for (size_t k = 0; k < std::min(head.size(), theads.size()); ++k) {
      if (head[k].ok && theads[k].ok) {
        overhead.push_back({head[k].dataset, theads[k].pipeline_s - head[k].pipeline_s});
      }
    }
    layers["trace.overhead_s"] = Estimate(overhead, w.datasets);
    const double traced_s = est(theads, &PointRun::pipeline_s);
    std::printf("  tracing overhead: traced pipeline_s %.4f - untraced %.4f "
                "= %.4f s; from per-round differences %.4f s\n",
                traced_s, pipeline_s, traced_s - pipeline_s,
                layers["trace.overhead_s"]);
    for (const auto& [name, v] : layers) out.push_back({name, LayerUnit(name), v});
  }
  for (const Metric& m : out) {
    std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-44s %16.6f %s (%lld of %lld operations)\n", "failed_share",
              static_cast<double>(tally.failed) /
                  static_cast<double>(std::max<int64_t>(tally.attempted, 1)),
              "share", static_cast<long long>(tally.failed),
              static_cast<long long>(tally.attempted));
  PrintJson(tally.failed == 0, tally, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
