// Benchmark driver: runs one workload per process, checks its outputs, and
// prints its metrics. Run it through run.py, which builds it first:
//
//   python3 perfbench/run.py --workload favorita-snowflake --seed 1
//       --seconds 40 --trace 0
//
// Every workload repeats the same round on its own inputs and engine profile
// until the next round would end after --seconds:
//   1. set-up: generate the tables, load them into a fresh Database and
//      Dataset::Prepare them;
//   2. training: one joinboost::Train, then the export-then-train path's
//      baselines::MaterializeExportLoad on the same dataset;
//   3. serving: the model is published to a ServingContext; reader sessions
//      issue filtered aggregate-join queries and batched predictions in a
//      closed loop while one writer appends fact rows.
// Workloads differ in inputs, profile and serving slice length. The program
// is driven only through its public API; every layer is measured from
// outside, by timing the calls into it and by reading the counters the
// program already exposes.
//
// Stdout: an "info" line (machine and build), an "ops" line (operations
// attempted and failed), a "samples" line, an "e2e" line (end-to-end
// metrics, also printed by traced runs so their overhead can be read off),
// and as the last line the result object {correct, attempted, failed,
// metrics}. With --trace 1 the metrics are the per-layer ones, and the spans
// go to --trace-out.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/dense_dataset.h"
#include "baselines/histogram_gbdt.h"
#include "inputs.h"
#include "joinboost.h"
#include "sql/parser.h"
#include "trace.h"
#include "util/error.h"
#include "util/threadpool.h"

namespace jb = joinboost;
using perfbench::Rng;
using perfbench::Tracer;

namespace {

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kTimedBuild = false;
#else
constexpr bool kTimedBuild = true;
#endif

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank p90 of one serving slice's latencies. The reported tail is
/// the median of these over the run's slices. On a shared VM every thread
/// stalls for 20-600 ms now and then; a p99 over the whole run moved by 2x
/// between runs with equal medians, depending on how many stalls it caught.
/// p90 and the median over slices keep stalls out while a slower request
/// class still moves the tail, and a fixed percentile means a faster program,
/// which gathers more samples, reports the same statistic.
double P90(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(0.9 * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

/// Resident-set high-water mark of this process, in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

[[noreturn]] void Die(int code, const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fflush(stdout);
  std::exit(code);
}

// ---------------------------------------------------------------------------
// Workloads

/// One serving query template: a COUNT/SUM aggregate over the fact joined to
/// one dimension, filtered on a dimension feature. Features are integers in
/// [1, 1000]; literal 1000 keeps every row, so its COUNT is the fact's size.
struct Template {
  std::string dim;
  std::vector<std::string> keys;
  std::string filter;  ///< dimension column compared with the literal
  std::string sum;     ///< fact column summed
};
constexpr int kLiterals[] = {125, 250, 375, 500, 625, 750, 875, 1000};
constexpr int kNumLiterals = 8;

struct Spec {
  std::string name;
  jb::EngineProfile profile;
  bool pilot = false;  ///< pilot F(s, d, c0..c9) schema, else Favorita
  size_t fact_rows = 0;
  size_t items = 0, stores = 0, dates = 0;  ///< Favorita dimensions
  int64_t d_domain = 0;                     ///< pilot dimension size
  int payload_columns = 0;                  ///< pilot c0..c9
  int iterations = 0;
  int leaves = 8;
  std::string update_strategy = "auto";
  int min_rounds = 3;         ///< rounds of set-up, train, export and serve
  double serve_slice_s = 0;   ///< serving time per round
  size_t probe_rows = 0;      ///< join rows per PredictBatch request
  size_t append_rows = 0;     ///< fact rows per writer append
  int append_every_ms = 0;    ///< writer pace
  int readers = 3;
  std::vector<std::string> served;
  std::vector<Template> templates;
};

std::vector<Template> FavoritaTemplates() {
  return {{"items", {"item_id"}, "f_item", "unit_sales"},
          {"stores", {"store_id"}, "f_store", "onpromotion"},
          {"dates", {"date_id"}, "f_date", "unit_sales"},
          {"transactions", {"store_id", "date_id"}, "f_trans", "xs0"}};
}

Spec MakeSpec(const std::string& workload, bool smoke) {
  Spec s;
  s.name = workload;
  if (workload == "favorita-snowflake" || workload == "serve-mixed") {
    s.profile = jb::EngineProfile::DSwap();
    s.items = 1000;
    s.stores = 54;
    s.dates = 365;
    s.served = {"sales", "items", "stores", "dates", "oil", "transactions"};
    s.templates = FavoritaTemplates();
    s.update_strategy = "swap";
  } else if (workload == "update-heavy-ddisk") {
    // D-disk's compression, WAL and CREATE-based updates. The WAL is kept in
    // memory only: the library names its spill file under /tmp, outside the
    // checkout the benchmark may write to.
    s.profile = jb::EngineProfile::DDisk();
    s.profile.wal_to_disk = false;
    s.pilot = true;
    s.d_domain = 2000;
    s.payload_columns = 10;
    s.update_strategy = "create";
    s.served = {"f", "dim_d"};
    s.templates = {{"dim_d", {"d"}, "f_d", "s_val"},
                   {"dim_d", {"d"}, "f_d", "c0"}};
  } else {
    Die(2, "unknown workload '" + workload +
               "' (favorita-snowflake, update-heavy-ddisk, serve-mixed)");
  }
  // Appends seal chunks of this size, so writes never rewrite old segments.
  s.profile.chunk_rows = 8192;
  // One thread per train and per request; each reader holds its own
  // admission slot. On a small shared VM, waking pool threads for morsels
  // made trains slower and their timings several times noisier, and fewer
  // slots than readers made the query tail swing with each slice's queueing.
  s.profile.exec_threads = 1;
  s.profile.serve_admission_slots = s.readers;

  if (workload == "favorita-snowflake") {
    s.fact_rows = 8000;
    s.iterations = 4;
    s.serve_slice_s = 0.8;
    s.probe_rows = 2048;
    s.append_rows = 200;
    s.append_every_ms = 200;
  } else if (workload == "update-heavy-ddisk") {
    s.fact_rows = 30000;
    s.iterations = 4;
    s.serve_slice_s = 1.2;
    s.probe_rows = 2048;
    s.append_rows = 500;
    s.append_every_ms = 100;
  } else {
    s.fact_rows = 20000;
    s.iterations = 3;
    s.serve_slice_s = 1.5;
    s.probe_rows = 4096;
    s.append_rows = 250;
    s.append_every_ms = 100;
  }
  if (smoke) {
    s.fact_rows = std::min<size_t>(s.fact_rows, 3000);
    s.iterations = 2;
    s.min_rounds = 2;
    s.probe_rows = 256;
    s.serve_slice_s = 0.3;
    s.append_every_ms = 50;
    if (s.pilot) s.d_domain = 300;
    s.items = std::min<size_t>(s.items, 200);
    s.dates = std::min<size_t>(s.dates, 60);
  }
  return s;
}

std::unique_ptr<perfbench::Schema> MakeSchema(const Spec& s, uint64_t seed) {
  if (s.pilot) {
    return std::make_unique<perfbench::Pilot>(seed, s.d_domain,
                                              s.payload_columns);
  }
  return std::make_unique<perfbench::Favorita>(seed, s.items, s.stores,
                                               s.dates);
}

std::string TemplateSql(const std::string& fact, const Template& t, int lit) {
  std::string sql = "SELECT COUNT(*) AS c, SUM(" + fact + "." + t.sum +
                    ") AS s FROM " + fact + " JOIN " + t.dim + " ON ";
  for (size_t k = 0; k < t.keys.size(); ++k) {
    if (k) sql += " AND ";
    sql += fact + "." + t.keys[k] + " = " + t.dim + "." + t.keys[k];
  }
  return sql + " WHERE " + t.dim + "." + t.filter + " <= " + std::to_string(lit);
}

// ---------------------------------------------------------------------------
// Operation accounting and checks

struct Ops {
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Operations attempted and failed, by kind, and the checks that failed.
/// Not thread-safe: each serving thread counts into its own instance, and
/// the instances are merged once the threads have ended.
class Accounting {
 public:
  /// Runs `fn`; a typed library error counts as a failed operation of
  /// `kind`, and any other exception propagates. Returns false on failure.
  bool Run(const std::string& kind, const std::function<void()>& fn) {
    Ops& o = ops_[kind];
    o.attempted++;
    try {
      fn();
      return true;
    } catch (const jb::JbError& e) {
      o.failed++;
      if (errors_.size() < 5) errors_.push_back(kind + ": " + e.what());
      return false;
    }
  }

  /// Counts one check; a failed one is named and makes the run incorrect.
  void Check(const std::string& check, bool ok, const std::string& detail) {
    ops_["checks"].attempted++;
    if (!ok && check_failures_.size() < 10) {
      check_failures_.push_back(check + ": " + detail);
    }
  }

  void Merge(const Accounting& o) {
    for (const auto& kv : o.ops_) {
      ops_[kv.first].attempted += kv.second.attempted;
      ops_[kv.first].failed += kv.second.failed;
    }
    check_failures_.insert(check_failures_.end(), o.check_failures_.begin(),
                           o.check_failures_.end());
    errors_.insert(errors_.end(), o.errors_.begin(), o.errors_.end());
  }

  bool correct() const { return check_failures_.empty(); }
  const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::map<std::string, Ops>& ops() const { return ops_; }
  Ops Total() const {
    Ops t;
    for (const auto& kv : ops_) {
      t.attempted += kv.second.attempted;
      t.failed += kv.second.failed;
    }
    return t;
  }

 private:
  std::map<std::string, Ops> ops_;
  std::vector<std::string> check_failures_;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  double value;
  const char* unit;
};
using MetricMap = std::map<std::string, Metric>;

std::string Json(const MetricMap& m) {
  std::string out = "{";
  bool first = true;
  char buf[128];
  for (const auto& kv : m) {
    double v = std::isfinite(kv.second.value) ? kv.second.value : 0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", kv.first.c_str(), v, kv.second.unit);
    out += buf;
    first = false;
  }
  return out + "}";
}

/// Query-log statements of one kind (by leading keyword) and their time.
struct LogSlice {
  size_t statements = 0;
  double select_ms = 0, ctas_ms = 0;
  size_t message_ctas = 0;
  double message_ctas_ms = 0;
  size_t update_statements = 0;  ///< tagged "update" by the trainer
};
LogSlice SliceLog(const std::vector<jb::exec::Database::QueryLogEntry>& log,
                  size_t begin, size_t end) {
  LogSlice s;
  for (size_t i = begin; i < end; ++i) {
    const auto& e = log[i];
    s.statements++;
    if (e.tag == "update") s.update_statements++;
    if (e.sql.compare(0, 6, "SELECT") == 0 || e.sql.compare(0, 4, "WITH") == 0) {
      s.select_ms += e.ms;
    } else if (e.sql.compare(0, 6, "CREATE") == 0) {
      s.ctas_ms += e.ms;
      if (e.tag == "message") {
        s.message_ctas++;
        s.message_ctas_ms += e.ms;
      }
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// The run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) Die(2, "missing value for " + k);
    std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--size") {
      if (v != "full" && v != "smoke") Die(2, "--size is full or smoke");
      a.smoke = v == "smoke";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      Die(2, "unknown argument " + k);
    }
  }
  if (a.workload.empty()) Die(2, "--workload is required");
  if (!(a.seconds > 0)) Die(2, "--seconds must be positive");
  return a;
}

class Run {
 public:
  Run(const Args& args, Spec spec)
      : args_(args),
        spec_(std::move(spec)),
        tracer_(args.trace, 2 + spec_.readers),
        schema_(MakeSchema(spec_, args.seed)) {}

  int Main() {
    start_ = Clock::now();
    // Whole rounds only; another starts while it can end within --seconds.
    std::vector<double> round_s;
    for (int r = 0; r < spec_.min_rounds ||
                    Since(start_) + Median(round_s) <= args_.seconds;
         ++r) {
      Tracer::Scope round(&tracer_, kMainLane, "bench.round", 0);
      auto t0 = Clock::now();
      Setup();
      TrainRound(r);
      ServeSlice(r);
      if (r > 0) round_s.push_back(Since(t0));  // round 0 also runs checks
    }
    return Report();
  }

 private:
  static constexpr int kMainLane = 0;
  static constexpr int kExportsPerRound = 3;
  int WriterLane() const { return 1 + spec_.readers; }

  // ---- set-up: generate, load, prepare ------------------------------------

  /// Replaces the database with a fresh one holding freshly loaded inputs,
  /// so every round pays the same cold costs and nothing accumulates.
  void Setup() {
    Tracer::Scope span(&tracer_, kMainLane, "bench.setup", 0);
    auto t0 = Clock::now();
    dataset_.reset();
    db_.reset();
    db_ = std::make_unique<jb::exec::Database>(spec_.profile);
    std::vector<perfbench::GenTable> tables;
    {
      Tracer::Scope gen(&tracer_, kMainLane, "data.generate", 0);
      Rng rng(args_.seed);
      tables = schema_->Dimensions();
      tables.push_back(schema_->FactRows(&rng, spec_.fact_rows, true));
    }
    {
      Tracer::Scope load(&tracer_, kMainLane, "storage.load", 0);
      for (const auto& t : tables) db_->LoadTable(t.Build());
    }
    dataset_ = std::make_unique<jb::Dataset>(db_.get());
    for (const auto& r : schema_->Relations()) {
      dataset_->AddTable(r.table, r.features, r.y);
    }
    for (const auto& e : schema_->Edges()) {
      dataset_->AddJoin(e.from, e.to, e.keys);
    }
    auto p0 = Clock::now();
    {
      Tracer::Scope prep(&tracer_, kMainLane, "core.prepare", 0);
      dataset_->Prepare();
    }
    prepare_s_.push_back(Since(p0));
    setup_s_.push_back(Since(t0));
    if (setup_s_.size() == 1) {
      setup_rss_mb_ = PeakRssMb();
      catalog_bytes_ = db_->catalog().TotalBytes();
    }
  }

  // ---- training ----------------------------------------------------------

  jb::core::TrainParams Params() const {
    jb::core::TrainParams p;
    p.objective = "regression";
    p.boosting = "gbdt";
    p.num_iterations = spec_.iterations;
    p.num_leaves = spec_.leaves;
    p.learning_rate = 0.3;
    p.update_strategy = spec_.update_strategy;
    return p;
  }

  /// Trains on this round's inputs and runs the export-then-train path's
  /// MaterializeExportLoad beside it. Round 0 is checked against an exact
  /// baseline; later rounds must reproduce round 0's model.
  void TrainRound(int r) {
    const bool first = r == 0;
    size_t log0 = first && args_.trace ? db_->QueryLog().size() : 0;
    uint64_t wal_bytes0 = db_->wal().bytes_written();
    size_t wal_records0 = db_->wal().num_records();

    // Traced runs sample the WAL's in-memory record count through the
    // first train, to show whether the log ever releases records.
    std::atomic<bool> training{true};
    std::thread wal_sampler;
    if (first && args_.trace) {
      wal_sampler = std::thread([&] {
        while (training.load()) {
          wal_samples_.push_back(db_->wal().num_records());
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    jb::TrainResult res;
    bool ok = acct_.Run("trains", [&] {
      Tracer::Scope span(&tracer_, kMainLane, "core.train", 0);
      auto t0 = Clock::now();
      res = jb::Train(Params(), *dataset_);
      train_s_.push_back(Since(t0));
    });
    training = false;
    if (wal_sampler.joinable()) wal_sampler.join();
    if (ok) {
      message_s_.push_back(res.message_seconds);
      feature_s_.push_back(res.feature_seconds);
      update_s_.push_back(res.update_seconds);
      host_s_.push_back(res.seconds - res.message_seconds -
                        res.feature_seconds - res.update_seconds);
    }
    if (ok && first) {
      first_ = res;
      model_ = std::make_shared<jb::core::Ensemble>(res.model);
      model_text_ = res.model.ToString();
      wal_bytes_ = static_cast<double>(db_->wal().bytes_written() - wal_bytes0);
      wal_records_ =
          static_cast<double>(db_->wal().num_records() - wal_records0);
      if (args_.trace) {
        auto log = db_->QueryLog();
        first_log_ = SliceLog(log, log0, log.size());
      }
    } else if (ok) {
      acct_.Check("train.deterministic", res.model.ToString() == model_text_,
                  "round " + std::to_string(r) +
                      " trained a different model than round 0");
    }

    // Exports are short next to a train: three per round keep their median
    // as steady as the train's.
    jb::baselines::DenseDataset dense;
    for (int e = 0; e < kExportsPerRound; ++e) {
      acct_.Run("exports", [&] {
        Tracer::Scope span(&tracer_, kMainLane, "baselines.export", 0);
        jb::baselines::ExportStats io;
        auto t0 = Clock::now();
        dense = jb::baselines::MaterializeExportLoad(*dataset_, &io);
        export_s_.push_back(Since(t0));
        join_s_.push_back(io.join_seconds);
        csv_s_.push_back(io.export_seconds + io.load_seconds);
      });
    }
    if (ok && first && dense.num_rows > 0) CheckTraining(res.model, dense);
    if (!model_) {
      for (const auto& e : acct_.errors()) std::fprintf(stderr, "%s\n", e.c_str());
      Die(1, "no training round succeeded");
    }
  }

  /// Exact-mode histogram GBDT on the exported join must reproduce the
  /// factorized model on every join row, and the training RMSE curve must
  /// never rise and must end below the base-score RMSE.
  void CheckTraining(const jb::core::Ensemble& model,
                     const jb::baselines::DenseDataset& dense) {
    Tracer::Scope span(&tracer_, kMainLane, "bench.check_train", 0);
    size_t distinct = 1;
    for (const auto& f : dense.features) {
      std::vector<double> v(f);
      std::sort(v.begin(), v.end());
      distinct = std::max<size_t>(
          distinct, static_cast<size_t>(std::unique(v.begin(), v.end()) - v.begin()));
    }
    jb::core::TrainParams exact = Params();
    exact.max_bin = static_cast<int>(distinct);
    jb::core::Ensemble baseline = jb::baselines::HistogramGbdt(exact).Train(dense);

    jb::core::JoinedEval eval = jb::core::MaterializeJoin(*dataset_, "check");
    acct_.Check("train.join_rows", eval.rows() == dense.num_rows,
                "join has " + std::to_string(eval.rows()) + " rows, export " +
                    std::to_string(dense.num_rows));
    size_t bad = 0;
    double worst = 0;
    for (size_t i = 0; i < eval.rows(); ++i) {
      double a = eval.Predict(model, i);
      double b = eval.Predict(baseline, i);
      double rel = std::fabs(a - b) / std::max({std::fabs(a), std::fabs(b), 1e-9});
      if (!(rel <= 1e-6)) bad++;
      worst = std::max(worst, rel);
    }
    acct_.Check("train.matches_exact_histogram_gbdt", bad == 0,
                std::to_string(bad) + " of " + std::to_string(eval.rows()) +
                    " join rows differ by more than 1e-6 relative (worst " +
                    std::to_string(worst) + ")");

    std::vector<double> curve = eval.RmseCurve(model);
    bool monotone = true;
    for (size_t i = 1; i < curve.size(); ++i) {
      if (curve[i] > curve[i - 1] * (1 + 1e-12)) monotone = false;
    }
    acct_.Check("train.rmse_never_rises", monotone, "training RMSE rose");
    acct_.Check("train.rmse_below_base",
                curve.size() > 1 && curve.back() < curve.front(),
                "final RMSE " + std::to_string(curve.back()) +
                    " not below base-score RMSE " + std::to_string(curve.front()));
    rmse_base_ = curve.front();
    rmse_final_ = curve.back();
  }

  // ---- serving -----------------------------------------------------------

  struct QueryRecord {
    uint64_t version;
    int tmpl;
    int lit;
    int64_t count;
    double sum;
  };

  /// Publishes the model to a fresh ServingContext over this round's
  /// database and runs the closed loop for one slice of spec_.serve_slice_s.
  void ServeSlice(int round) {
    jb::serve::ServingContext ctx(db_.get(), spec_.served);
    {
      Tracer::Scope span(&tracer_, kMainLane, "serve.publish", 0);
      auto t0 = Clock::now();
      ctx.PublishModel(*model_);
      publish_ms_.push_back(Since(t0) * 1e3);
    }
    if (!probe_) MakeProbe();

    const jb::plan::PlanStats stats0 = db_->PlanStatsTotals();
    const auto slice_start = Clock::now();
    const auto slice_end =
        slice_start + std::chrono::microseconds(
                          static_cast<int64_t>(spec_.serve_slice_s * 1e6));
    std::mutex mu;  // guards what the threads hand over when they end
    std::vector<double> slice_query_ms, slice_predict_ms;
    std::vector<QueryRecord> records;
    std::map<uint64_t, jb::serve::ServingContext::Session> pinned;
    std::vector<Accounting> lane_acct(static_cast<size_t>(spec_.readers) + 1);
    std::vector<std::thread> threads;
    for (int r = 0; r < spec_.readers; ++r) {
      threads.emplace_back([&, r] {
        const int lane = 1 + r;
        Accounting& acct = lane_acct[static_cast<size_t>(r)];
        std::map<uint64_t, jb::serve::ServingContext::Session> mine_pinned;
        Rng rng(args_.seed * 1000003 + static_cast<uint64_t>(round) * 101 +
                static_cast<uint64_t>(r));
        std::vector<double> qlat, plat;
        std::vector<QueryRecord> mine;
        for (uint64_t i = 0; Clock::now() < slice_end; ++i) {
          const uint64_t id = (static_cast<uint64_t>(lane) << 56) |
                              (static_cast<uint64_t>(round) << 32) | (i + 1);
          Tracer::Scope req(&tracer_, lane, "bench.request", id);
          jb::serve::ServingContext::Session s = [&] {
            Tracer::Scope span(&tracer_, lane, "serve.open_session", id);
            return ctx.OpenSession();
          }();
          if (i % 2 == 0) {
            int t = static_cast<int>(rng.Next() % spec_.templates.size());
            int l = static_cast<int>(rng.Next() % kNumLiterals);
            std::string sql = TemplateSql(schema_->fact(),
                                          spec_.templates[static_cast<size_t>(t)],
                                          kLiterals[l]);
            acct.Run("queries", [&] {
              std::shared_ptr<jb::exec::ExecTable> res;
              {
                Tracer::Scope span(&tracer_, lane, "serve.query", id);
                auto t0 = Clock::now();
                res = s.Query(sql);
                qlat.push_back(Since(t0) * 1e3);
              }
              int64_t count = res->rows == 1 ? res->Col(0).GetValue(0).i : -1;
              double sum = res->rows == 1 ? res->Col(1).GetValue(0).AsDouble() : 0;
              mine.push_back({s.version(), t, l, count, sum});
              mine_pinned.emplace(s.version(), s);
            });
          } else {
            acct.Run("predictions", [&] {
              std::vector<double> out;
              {
                Tracer::Scope span(&tracer_, lane, "serve.predict", id);
                auto t0 = Clock::now();
                out = s.PredictBatch(*probe_);
                plat.push_back(Since(t0) * 1e3);
              }
              acct.Check("serve.predict_bitwise", SameBits(out, expected_),
                          "PredictBatch differs from per-row Ensemble::Predict");
            });
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        slice_query_ms.insert(slice_query_ms.end(), qlat.begin(), qlat.end());
        slice_predict_ms.insert(slice_predict_ms.end(), plat.begin(), plat.end());
        records.insert(records.end(), mine.begin(), mine.end());
        pinned.insert(mine_pinned.begin(), mine_pinned.end());
      });
    }
    std::thread writer([&] {
      const int lane = WriterLane();
      Accounting& acct = lane_acct.back();
      std::vector<double> lat;
      for (uint64_t k = 0;; ++k) {
        auto due = slice_start + std::chrono::milliseconds(
                                     static_cast<int64_t>(k) * spec_.append_every_ms);
        if (due >= slice_end) break;
        std::this_thread::sleep_until(due);
        Rng rng(args_.seed * 7919 + static_cast<uint64_t>(round) * 100003 + k);
        jb::exec::ExecTable batch =
            schema_->FactRows(&rng, spec_.append_rows, false).ToExecTable();
        acct.Run("appends", [&] {
          Tracer::Scope span(&tracer_, lane, "serve.append", 0);
          auto t0 = Clock::now();
          ctx.Append(schema_->fact(), batch);
          lat.push_back(Since(t0) * 1e3);
        });
      }
      std::lock_guard<std::mutex> lock(mu);
      append_ms_.insert(append_ms_.end(), lat.begin(), lat.end());
      publish_ms_.insert(publish_ms_.end(), lat.begin(), lat.end());
    });
    for (auto& t : threads) t.join();
    writer.join();
    const double slice_s = Since(slice_start);
    int64_t requests = 0;
    for (const Accounting& a : lane_acct) {
      for (const char* kind : {"queries", "predictions"}) {
        auto it = a.ops().find(kind);
        if (it != a.ops().end()) requests += it->second.attempted - it->second.failed;
      }
      acct_.Merge(a);
    }
    slice_qps_.push_back(static_cast<double>(requests) / slice_s);
    query_tails_.push_back(P90(slice_query_ms));
    predict_tails_.push_back(P90(slice_predict_ms));
    query_ms_.insert(query_ms_.end(), slice_query_ms.begin(), slice_query_ms.end());
    predict_ms_.insert(predict_ms_.end(), slice_predict_ms.begin(),
                       slice_predict_ms.end());

    jb::plan::PlanStats stats1 = db_->PlanStatsTotals();
    auto delta = [](size_t after, size_t before) {
      return static_cast<double>(after - before);
    };
    serve_chunks_created_ += delta(stats1.chunks_created, stats0.chunks_created);
    serve_chunks_rewritten_ += delta(stats1.chunks_rewritten, stats0.chunks_rewritten);
    serve_chunks_pruned_ += delta(stats1.chunks_pruned, stats0.chunks_pruned);
    serve_plan_hits_ += delta(stats1.plan_cache_hits, stats0.plan_cache_hits);
    serve_plan_misses_ += delta(stats1.plan_cache_misses, stats0.plan_cache_misses);
    snapshots_published_ += static_cast<double>(ctx.snapshots_published());
    snapshot_reads_ += static_cast<double>(ctx.snapshot_reads());
    batched_predictions_ += static_cast<double>(ctx.batched_predictions());

    CheckQueries(records, pinned);
  }

  static bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  }

  /// The prediction probe: the first join rows, with their per-row
  /// Ensemble::Predict values as the reference every batched prediction must
  /// match bit for bit. Made once; every round loads the same inputs.
  void MakeProbe() {
    {
      Tracer::Scope span(&tracer_, kMainLane, "bench.probe", 0);
      jb::core::JoinedEval join = jb::core::MaterializeJoin(*dataset_, "probe");
      std::vector<uint32_t> idx(std::min(spec_.probe_rows, join.rows()));
      for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
      probe_ = std::make_shared<jb::exec::ExecTable>(join.table().GatherRows(idx));
      jb::core::JoinedEval per_row(probe_, "jb_y");
      for (size_t i = 0; i < probe_->rows; ++i) {
        expected_.push_back(per_row.Predict(*model_, i));
      }
    }
    // The same compile PublishModel runs; this one feeds the checks below.
    jb::core::FlatForest forest = [&] {
      Tracer::Scope span(&tracer_, kMainLane, "core.compile", 0);
      auto t0 = Clock::now();
      jb::core::FlatForest f = jb::core::FlatForest::Compile(*model_);
      forest_compile_ms_ = Since(t0) * 1e3;
      return f;
    }();
    std::vector<double> secs;
    for (int i = 0; i < 5; ++i) {
      Tracer::Scope span(&tracer_, kMainLane, "core.predict_batch", 0);
      auto t0 = Clock::now();
      std::vector<double> out = forest.PredictBatch(*probe_);
      secs.push_back(Since(t0));
      acct_.Check("serve.flat_forest_bitwise", SameBits(out, expected_),
                  "FlatForest::PredictBatch differs from Ensemble::Predict");
    }
    predict_rows_per_s_ = static_cast<double>(probe_->rows) / Median(secs);
    if (args_.trace) {
      std::vector<double> ms;
      for (const Template& t : spec_.templates) {
        jb::sql::Statement stmt =
            jb::sql::Parse(TemplateSql(schema_->fact(), t, kLiterals[3]));
        Tracer::Scope span(&tracer_, kMainLane, "plan.explain", 0);
        auto t0 = Clock::now();
        db_->ExplainSelect(*stmt.select);
        ms.push_back(Since(t0) * 1e3);
      }
      cold_plan_ms_ = Median(ms);
    }
  }

  /// Every query result must equal the aggregate computed here from the
  /// pinned snapshot's columns, read through the storage API.
  void CheckQueries(const std::vector<QueryRecord>& records,
                    const std::map<uint64_t, jb::serve::ServingContext::Session>& pinned) {
    Tracer::Scope span(&tracer_, kMainLane, "bench.check_queries", 0);
    std::map<uint64_t, std::vector<const QueryRecord*>> by_version;
    for (const auto& r : records) by_version[r.version].push_back(&r);
    const std::string fact = schema_->fact();
    for (const auto& kv : by_version) {
      const jb::Catalog& cat = pinned.at(kv.first).snapshot().tables;
      jb::TablePtr f = cat.Get(fact);
      const size_t n = f->num_rows();
      // answers[t][l] = {count, sum}
      std::vector<std::vector<std::pair<int64_t, double>>> answers;
      for (const Template& t : spec_.templates) {
        jb::TablePtr d = cat.Get(t.dim);
        std::vector<std::vector<int64_t>> fkeys, dkeys;
        for (const auto& k : t.keys) {
          fkeys.push_back(f->column(k)->DecodeInts());
          dkeys.push_back(d->column(k)->DecodeInts());
        }
        std::vector<double> filter = d->column(t.filter)->DecodeDoubles();
        std::vector<double> sum = f->column(t.sum)->DecodeDoubles();
        auto key_of = [](const std::vector<std::vector<int64_t>>& cols, size_t i) {
          uint64_t h = 0;
          for (const auto& c : cols) h = h * 1000003ULL + static_cast<uint64_t>(c[i]);
          return h;
        };
        std::unordered_map<uint64_t, double> dim_filter;
        for (size_t i = 0; i < filter.size(); ++i) {
          dim_filter.emplace(key_of(dkeys, i), filter[i]);
        }
        std::vector<std::pair<int64_t, double>> per_lit(kNumLiterals, {0, 0.0});
        for (size_t i = 0; i < n; ++i) {
          auto it = dim_filter.find(key_of(fkeys, i));
          if (it == dim_filter.end()) continue;
          for (int l = 0; l < kNumLiterals; ++l) {
            if (it->second <= kLiterals[l]) {
              per_lit[static_cast<size_t>(l)].first++;
              per_lit[static_cast<size_t>(l)].second += sum[i];
            }
          }
        }
        answers.push_back(per_lit);
      }
      for (const QueryRecord* r : kv.second) {
        const auto& want = answers[static_cast<size_t>(r->tmpl)][static_cast<size_t>(r->lit)];
        bool ok = r->count == want.first &&
                  std::fabs(r->sum - want.second) <=
                      1e-9 * std::max(1.0, std::fabs(want.second));
        if (kLiterals[r->lit] == 1000) ok = ok && r->count == static_cast<int64_t>(n);
        acct_.Check("serve.query_matches_snapshot", ok,
                    "template " + std::to_string(r->tmpl) + " literal " +
                        std::to_string(kLiterals[r->lit]) + " at version " +
                        std::to_string(r->version) + ": got (" +
                        std::to_string(r->count) + ", " + std::to_string(r->sum) +
                        "), want (" + std::to_string(want.first) + ", " +
                        std::to_string(want.second) + ") over " +
                        std::to_string(n) + " fact rows");
      }
    }
  }

  // ---- report -----------------------------------------------------------

  MetricMap EndToEnd() const {
    return {
        {"setup_s", {Median(setup_s_), "s"}},
        {"train_s", {Median(train_s_), "s"}},
        {"export_s", {Median(export_s_), "s"}},
        {"peak_rss_mb", {PeakRssMb(), "MB"}},
        {"serve_qps", {Median(slice_qps_), "1/s"}},
        {"query_p50_ms", {Median(query_ms_), "ms"}},
        {"query_tail_ms", {Median(query_tails_), "ms"}},
        {"predict_p50_ms", {Median(predict_ms_), "ms"}},
        {"predict_tail_ms", {Median(predict_tails_), "ms"}},
        {"append_ms", {Median(append_ms_), "ms"}},
    };
  }

  MetricMap PerLayer() const {
    const jb::plan::PlanStats& ps = first_.plan_stats;
    auto d = [](size_t v) { return static_cast<double>(v); };
    double parse_ms = 0;
    std::vector<jb::exec::Database::QueryLogEntry> log = db_->QueryLog();
    {
      auto t0 = Clock::now();
      for (const auto& e : log) jb::sql::Parse(e.sql);
      parse_ms = log.empty() ? 0 : Since(t0) * 1e3 / static_cast<double>(log.size());
    }
    // Reference trainer: the export-then-train library at its default bins.
    double hist_s = 0;
    {
      jb::baselines::DenseDataset dense =
          jb::baselines::MaterializeExportLoad(*dataset_, nullptr);
      jb::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
      jb::baselines::HistogramGbdt trainer(Params(), &pool);
      auto t0 = Clock::now();
      trainer.Train(dense);
      hist_s = Since(t0);
    }
    double train_s = Median(train_s_);
    double export_s = Median(export_s_);
    return {
        {"core.message_s", {Median(message_s_), "s"}},
        {"core.feature_s", {Median(feature_s_), "s"}},
        {"core.update_s", {Median(update_s_), "s"}},
        {"core.host_s", {Median(host_s_), "s"}},
        {"core.message_queries", {d(first_.message_queries), "count"}},
        {"core.feature_queries", {d(first_.feature_queries), "count"}},
        {"core.update_statements", {d(first_log_.update_statements), "count"}},
        {"core.prepare_s", {Median(prepare_s_), "s"}},
        {"core.forest_compile_ms", {forest_compile_ms_, "ms"}},
        {"core.predict_rows_per_s", {predict_rows_per_s_, "1/s"}},
        {"factor.cache_hits", {d(first_.cache_hits), "count"}},
        {"factor.cache_misses", {d(first_.cache_misses), "count"}},
        {"factor.message_ctas", {d(first_log_.message_ctas), "count"}},
        {"factor.message_ctas_ms", {first_log_.message_ctas_ms, "ms"}},
        {"sql.statements", {d(first_log_.statements), "count"}},
        {"sql.parse_ms", {parse_ms, "ms"}},
        {"plan.queries_planned", {d(ps.queries_planned), "count"}},
        {"plan.cache_hits", {d(ps.plan_cache_hits), "count"}},
        {"plan.cache_misses", {d(ps.plan_cache_misses), "count"}},
        {"plan.joins_reordered_dp", {d(ps.joins_reordered_dp), "count"}},
        {"plan.cold_plan_ms", {cold_plan_ms_, "ms"}},
        {"plan.serve_cache_hits", {serve_plan_hits_, "count"}},
        {"plan.serve_cache_misses", {serve_plan_misses_, "count"}},
        {"exec.select_ms", {first_log_.select_ms, "ms"}},
        {"exec.ctas_ms", {first_log_.ctas_ms, "ms"}},
        {"exec.hash_probes", {d(ps.hash_probes), "count"}},
        {"exec.hash_chain_follows", {d(ps.hash_chain_follows), "count"}},
        {"exec.hash_bytes", {d(ps.hash_bytes), "bytes"}},
        {"exec.grouping_sets", {d(ps.grouping_sets), "count"}},
        {"exec.query_log_entries", {d(log.size()), "count"}},
        {"storage.rows_scanned", {d(ps.rows_scan_input), "count"}},
        {"storage.cells_decompressed", {d(ps.cells_decompressed), "count"}},
        {"storage.cells_decompress_avoided", {d(ps.cells_decompress_avoided), "count"}},
        {"storage.blocks_skipped", {d(ps.blocks_skipped), "count"}},
        {"storage.chunks_created", {serve_chunks_created_, "count"}},
        {"storage.chunks_rewritten", {serve_chunks_rewritten_, "count"}},
        {"storage.chunks_pruned", {serve_chunks_pruned_, "count"}},
        {"storage.catalog_bytes", {d(catalog_bytes_), "bytes"}},
        {"storage.catalog_tables_after", {d(db_->catalog().ListTables().size()), "count"}},
        {"storage.wal_bytes", {wal_bytes_, "bytes"}},
        {"storage.wal_records", {wal_records_, "count"}},
        {"serve.snapshots_published", {snapshots_published_, "count"}},
        {"serve.snapshot_reads", {snapshot_reads_, "count"}},
        {"serve.batched_predictions", {batched_predictions_, "count"}},
        {"serve.publish_ms", {Median(publish_ms_), "ms"}},
        {"baselines.join_s", {Median(join_s_), "s"}},
        {"baselines.csv_s", {Median(csv_s_), "s"}},
        {"baselines.histogram_train_s", {hist_s, "s"}},
        {"baselines.gap_ratio", {train_s / (export_s + hist_s), "x"}},
        {"mem.setup_rss_mb", {setup_rss_mb_, "MB"}},
    };
  }

  int Report() {
    MetricMap e2e = EndToEnd();
    MetricMap layers;
    if (args_.trace) layers = PerLayer();

    std::printf(
        "info {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"size\": \"%s\", \"seconds\": %g, \"nproc\": %u, "
        "\"exec_threads\": %d, \"build_type\": \"%s\", \"profile\": \"%s\"}\n",
        spec_.name.c_str(), static_cast<unsigned long long>(args_.seed),
        args_.trace ? 1 : 0, args_.smoke ? "smoke" : "full", args_.seconds,
        std::thread::hardware_concurrency(), db_->exec_threads(),
        JB_BENCH_BUILD_TYPE, spec_.profile.name.c_str());
    std::string ops = "ops {";
    for (const auto& kv : acct_.ops()) {
      ops += (ops.size() > 5 ? ", \"" : "\"") + kv.first + "\": {\"attempted\": " +
             std::to_string(kv.second.attempted) +
             ", \"failed\": " + std::to_string(kv.second.failed) + "}";
    }
    std::printf("%s}\n", ops.c_str());
    std::printf(
        "samples {\"queries\": %zu, \"predictions\": %zu, \"appends\": %zu, "
        "\"rounds\": %zu, \"tail\": \"median over rounds of each serving "
        "slice's p90\"}\n",
        query_ms_.size(), predict_ms_.size(), append_ms_.size(), train_s_.size());
    std::printf("e2e %s\n", Json(e2e).c_str());
    for (const auto& e : acct_.errors()) std::fprintf(stderr, "error %s\n", e.c_str());
    for (const auto& c : acct_.check_failures()) {
      std::fprintf(stderr, "CHECK FAILED %s\n", c.c_str());
    }
    if (args_.trace && !args_.trace_out.empty()) WriteTrace(e2e, layers);

    Ops total = acct_.Total();
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                acct_.correct() ? "true" : "false",
                static_cast<long long>(total.attempted),
                static_cast<long long>(total.failed),
                Json(args_.trace ? layers : e2e).c_str());
    std::fflush(stdout);
    return acct_.correct() ? 0 : 1;
  }

  void WriteTrace(const MetricMap& e2e, const MetricMap& layers) const {
    std::FILE* f = std::fopen(args_.trace_out.c_str(), "w");
    if (f == nullptr) Die(1, "cannot write " + args_.trace_out);
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu,\n",
                 spec_.name.c_str(), static_cast<unsigned long long>(args_.seed));
    std::fprintf(f, "\"end_to_end_traced\": %s,\n", Json(e2e).c_str());
    std::fprintf(f, "\"per_layer\": %s,\n", Json(layers).c_str());
    std::fprintf(f, "\"rmse\": {\"base\": %.17g, \"final\": %.17g},\n",
                 rmse_base_, rmse_final_);
    size_t drops = 0;
    for (size_t i = 1; i < wal_samples_.size(); ++i) {
      if (wal_samples_[i] < wal_samples_[i - 1]) drops++;
    }
    std::fprintf(f,
                 "\"wal_records_during_first_train\": {\"samples\": %zu, "
                 "\"first\": %zu, \"last\": %zu, \"drops\": %zu},\n",
                 wal_samples_.size(), wal_samples_.empty() ? 0 : wal_samples_.front(),
                 wal_samples_.empty() ? 0 : wal_samples_.back(), drops);
    std::fprintf(f, "\"self_seconds_by_layer\": {");
    bool first = true;
    for (const auto& kv : tracer_.SelfSecondsByLayer()) {
      std::fprintf(f, "%s\"%s\": %.9f", first ? "" : ", ", kv.first.c_str(),
                   kv.second);
      first = false;
    }
    std::fprintf(f, "},\n");
    tracer_.WriteSpans(f);
    std::fprintf(f, "}\n");
    std::fclose(f);
  }

  const Args args_;
  const Spec spec_;
  Tracer tracer_;
  std::unique_ptr<perfbench::Schema> schema_;
  Accounting acct_;
  Clock::time_point start_;

  std::unique_ptr<jb::exec::Database> db_;
  std::unique_ptr<jb::Dataset> dataset_;
  std::shared_ptr<const jb::core::Ensemble> model_;
  std::string model_text_;
  jb::TrainResult first_;
  LogSlice first_log_;

  std::vector<double> setup_s_, prepare_s_, train_s_, export_s_, join_s_, csv_s_;
  std::vector<double> message_s_, feature_s_, update_s_, host_s_;
  std::vector<double> query_ms_, predict_ms_, append_ms_, publish_ms_;
  std::vector<double> slice_qps_, query_tails_, predict_tails_;
  std::shared_ptr<jb::exec::ExecTable> probe_;
  std::vector<double> expected_;
  std::vector<size_t> wal_samples_;  ///< WAL records, sampled in round 0
  double setup_rss_mb_ = 0;
  double forest_compile_ms_ = 0, predict_rows_per_s_ = 0, cold_plan_ms_ = 0;
  double wal_bytes_ = 0, wal_records_ = 0, rmse_base_ = 0, rmse_final_ = 0;
  size_t catalog_bytes_ = 0;
  double serve_chunks_created_ = 0, serve_chunks_rewritten_ = 0;
  double serve_chunks_pruned_ = 0, serve_plan_hits_ = 0, serve_plan_misses_ = 0;
  double snapshots_published_ = 0, snapshot_reads_ = 0;
  double batched_predictions_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  if (!kTimedBuild || std::string(JB_BENCH_BUILD_TYPE) != "Release") {
    Die(3, std::string("refusing to time a ") + JB_BENCH_BUILD_TYPE +
               (kTimedBuild ? "" : " assert-enabled or sanitizer") +
               " build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  Args args = ParseArgs(argc, argv);
  Run run(args, MakeSpec(args.workload, args.smoke));
  return run.Main();
}
