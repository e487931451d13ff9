// The workloads of the repository benchmark (see run.py and NOTES.md).
//
// One process runs one workload and prints one JSON report line on stdout:
// the end-to-end metrics, the per-layer metrics of a traced run, the output
// checks and a host record. run.py turns that line into the benchmark
// result.
//
//   neobench --workload train|serve-hot|serve-cold --seed N --seconds S
//            [--trace 0|1] [--requests N] [--trace-out PATH] [--tmp-dir DIR]
//
// train       bootstrap 3 Neos from the PostgreSQL-style expert, then 12
//             Neo::RunEpisode calls each; the whole pass runs kSetupReps
//             times (fixed schedule: --seconds does not change it).
// serve-hot   ServingCore with 1 worker and 1 closed-loop client cycling the
//             132 JOB queries after a warm pass; learn=false, no store.
// serve-cold  ServingCore with 2 workers, 2 closed-loop clients, no
//             coalescing, learn=true, a durable ExperienceStore, and a stream
//             of distinct never-seen JOB queries (fresh literals), the first
//             kColdWarmup of them served during set-up.
//
// Only public entry points are used (bench/common.h's Env/NeoRun, core::Neo,
// serve::ServingCore, store::ExperienceStore, engine::ExecutionEngine), so the
// benchmark measures src/ from outside.
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/common.h"
#include "src/nn/matrix.h"
#include "src/serve/serving_core.h"
#include "src/store/experience_store.h"
#include "src/util/rng.h"

#ifndef NEOBENCH_BUILD_TYPE
#define NEOBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace neo;
using bench::Env;
using bench::NeoRun;

constexpr int kEpisodes = 12;     // DefaultNeoConfig's quick-mode schedule.
constexpr int kNeoSeeds = 3;      // train: plan quality is a median of 3 seeds.
constexpr int kEvalEpisodes = 3;  // ... each the median of its last 3 episodes.
// Set-up runs this many times per process and setup_s is the median; on
// train the schedule repeats with it. NOTES.md has the measurements.
constexpr int kSetupReps = 3;
// The system under test is the same on every run: one IMDb-like database, the
// 3 Neo seeds train learns with (fig10's 2000 + 131 k) and the serving model
// (train's first Neo). The workload seed picks what is sent to it: the
// held-out queries train is judged on, the serve-hot rotation order, the
// serve-cold literal stream. NOTES.md has the measurements behind this.
constexpr uint64_t kDataSeed = 42;
// serve-*: plan quality covers this many requests from the start of the
// timed phase (the expert side costs ~12 ms a query on serve-cold).
constexpr int64_t kQualityRequests = 2000;
// serve-cold serves this many fresh queries as part of set-up, so the timed
// phase starts past the start-up transient of the caches and the store (the
// first 500 requests of a cold stream had a p99 1.7x that of the rest).
constexpr int64_t kColdWarmup = 500;
// serve-cold's latency_p99_ms is the median of the p99s of consecutive
// blocks of this many requests (10 samples beyond each block's p99).
constexpr size_t kP99Block = 1000;

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double NowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kProcessStart).count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool FinitePositive(double x) { return std::isfinite(x) && x > 0.0; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

/// Bytes this process has passed to write(2) so far (/proc/self/io wchar).
double WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  double value = 0.0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int64_t requests = 0;  ///< > 0: serve exactly this many instead of timing.
  std::string trace_out;
  std::string tmp_dir = ".";
};

/// Output checks: every operation counts as attempted; a failed one is kept
/// with a short note (the first few are reported).
struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> notes;

  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (notes.size() < 8) notes.push_back(what);
  }
  void Merge(const Checks& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& n : o.notes) {
      if (notes.size() < 8) notes.push_back(n);
    }
  }
};

/// Spans kept in memory and written when the run ends. Layer self time is a
/// span's duration minus the part its children cover.
struct Span {
  const char* name;
  double start_ms;
  double end_ms;
  int parent;       ///< Index of the parent span, -1 for a root.
  int64_t request;  ///< Request id, -1 outside requests.
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int Add(const char* name, double start_ms, double end_ms, int parent = -1,
          int64_t request = -1) {
    if (!on_) return -1;
    spans_.push_back(Span{name, start_ms, end_ms, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span, double end_ms) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ms = end_ms;
  }

  /// Self time per span name, in ms.
  std::map<std::string, double> SelfMs() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const double self = spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
      out[spans_[i].name] += std::max(0.0, self);
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                   "\"parent\":%d,\"request\":%lld}%s\n",
                   s.name, s.start_ms, s.end_ms, s.parent,
                   static_cast<long long>(s.request),
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Metric name -> value, in the order written.
using Metrics = std::vector<std::pair<std::string, double>>;

/// Set-up phases, summed over one set-up.
struct SetupTimes {
  double datagen_ms = 0.0;
  double rowvec_ms = 0.0;
  double bootstrap_ms = 0.0;
  double pretrain_ms = 0.0;
  double prepare_ms = 0.0;
  double total_ms = 0.0;
};

struct Report {
  Metrics e2e;
  Metrics layers;
  std::map<std::string, double> self_ms;
  Checks checks;
  std::vector<std::pair<std::string, std::string>> info;
};

/// Dataset, JOB workload, statistics and the R-Vector embedding.
std::unique_ptr<Env> MakeEnv(uint64_t seed, SetupTimes* t, Tracer* tr, int parent) {
  const bench::Options opt{};  // Quick mode: scale 0.05, 40 training queries.
  double t0 = NowMs();
  auto env = std::make_unique<Env>(Env::Make(bench::WorkloadKind::kJob, opt,
                                             /*build_rvec_joins=*/false,
                                             /*build_rvec_nojoins=*/false, seed));
  double t1 = NowMs();
  t->datagen_ms += t1 - t0;
  tr->Add("setup.datagen", t0, t1, parent);
  // Env::Make's quick-mode R-Vector (joins) options, timed on their own.
  embedding::RowEmbeddingOptions ropt;
  ropt.mode = embedding::RowEmbeddingMode::kJoins;
  ropt.w2v.dim = 16;
  ropt.w2v.epochs = 8;
  env->rvec_joins =
      std::make_unique<embedding::RowEmbedding>(env->ds.schema, *env->ds.db, ropt);
  t0 = t1;
  t1 = NowMs();
  t->rowvec_ms += t1 - t0;
  tr->Add("setup.rowvec", t0, t1, parent);
  return env;
}

std::unique_ptr<NeoRun> MakeBootstrapped(Env& env, uint64_t neo_seed, SetupTimes* t,
                                         Tracer* tr, int parent) {
  const double t0 = NowMs();
  auto run = std::make_unique<NeoRun>(NeoRun::Make(
      env, engine::EngineKind::kPostgres, bench::FeatVariant::kRVector, bench::Options{},
      neo_seed));
  run->neo->Bootstrap(env.split.train, run->expert.optimizer.get());
  const double t1 = NowMs();
  t->bootstrap_ms += t1 - t0;
  tr->Add("setup.bootstrap", t0, t1, parent);
  return run;
}

uint64_t NeoSeed(int k) { return 2000 + 131 * static_cast<uint64_t>(k); }

void AddSetupMetrics(const std::vector<SetupTimes>& reps, Report* r) {
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : reps) v.push_back(s.*field / 1000.0);
    return Percentile(v, 50);
  };
  r->e2e.push_back({"setup_s", median_of(&SetupTimes::total_ms)});
  r->layers.push_back({"setup.datagen_s", median_of(&SetupTimes::datagen_ms)});
  r->layers.push_back({"setup.rowvec_s", median_of(&SetupTimes::rowvec_ms)});
  r->layers.push_back({"setup.bootstrap_s", median_of(&SetupTimes::bootstrap_ms)});
  r->layers.push_back({"setup.pretrain_s", median_of(&SetupTimes::pretrain_ms)});
  r->layers.push_back({"setup.prepare_s", median_of(&SetupTimes::prepare_ms)});
  std::string each;
  for (const SetupTimes& s : reps) {
    each += (each.empty() ? "" : " ") + std::to_string(s.total_ms / 1000.0);
  }
  r->info.push_back({"setup_s_each", each});
}

// ---------------------------------------------------------------------------
// train

struct TrainWorld {
  std::unique_ptr<Env> env;
  std::vector<std::unique_ptr<NeoRun>> runs;  ///< One per Neo seed.
  /// Queries Neo never trains on, as many as the test split, picked by the
  /// workload seed: plan quality is judged on these.
  std::vector<const query::Query*> heldout;
};

/// What one set-up + schedule of the train workload measured.
struct TrainPass {
  double train_ms = 0.0;             ///< Wall time of all RunEpisode calls.
  double queries = 0.0;              ///< Training queries the episodes ran.
  std::vector<double> per_query_ms;  ///< Per episode: wall time / queries.
};

/// The schedule: 12 episodes for each Neo. The last pass also evaluates plan
/// quality and reports the per-layer metrics into `r`.
TrainPass RunTrainSchedule(TrainWorld& world, bool last, Tracer* tr, Report* r) {
  const auto& train = world.env->split.train;
  const auto& test = world.heldout;
  size_t memo_hits0 = 0, memo_misses0 = 0;
  for (const auto& run : world.runs) {
    memo_hits0 += run->engine->latency_cache_hits();
    memo_misses0 += run->engine->latency_cache_misses();
  }

  TrainPass pass;
  double nn_ms = 0.0, search_ms = 0.0, samples = 0.0, trace_cost_ms = 0.0;
  std::vector<double> search_per_query_ms, final_loss, ratios;
  size_t states = 0, memo_hits = 0, memo_misses = 0, oracle = 0;
  const double phase0 = NowMs();
  for (const auto& run : world.runs) {
    core::Neo& neo = *run->neo;
    std::vector<double> evals;
    float loss = 0.0f;
    for (int e = 1; e <= kEpisodes; ++e) {
      const double before_states = static_cast<double>(neo.experience().NumStates());
      const double t0 = NowMs();
      const core::EpisodeStats st = neo.RunEpisode(train);
      const double t1 = NowMs();
      pass.train_ms += t1 - t0;
      pass.queries += static_cast<double>(train.size());
      pass.per_query_ms.push_back((t1 - t0) / static_cast<double>(train.size()));
      nn_ms += st.nn_time_ms;
      search_ms += st.search_time_ms;
      search_per_query_ms.push_back(st.search_time_ms / static_cast<double>(train.size()));
      samples += std::min(before_states,
                          static_cast<double>(neo.config().max_train_samples)) *
                 neo.config().epochs_per_episode;
      loss = st.retrain_loss;
      r->checks.Op(FinitePositive(st.train_total_latency_ms) && std::isfinite(st.retrain_loss),
                   "episode latency or loss not finite");
      if (tr->on()) {
        const double c0 = NowMs();
        const int ep = tr->Add("episode", t0, t1);
        tr->Add("nn.retrain", t0, t0 + st.nn_time_ms, ep);
        tr->Add("search", t0 + st.nn_time_ms, t0 + st.nn_time_ms + st.search_time_ms, ep);
        trace_cost_ms += NowMs() - c0;
      }
      if (last && e > kEpisodes - kEvalEpisodes) {
        const double e0 = NowMs();
        const double total = neo.EvaluateTotalLatency(test);
        tr->Add("evaluate", e0, NowMs());
        r->checks.Op(FinitePositive(total), "test latency not finite/positive");
        evals.push_back(total);
      }
    }
    if (!last) continue;
    // Engine counters are read before the expert's plans run on this engine.
    memo_hits += run->engine->latency_cache_hits();
    memo_misses += run->engine->latency_cache_misses();
    oracle += run->engine->oracle().CacheSize();
    const double expert_total = run->OptimizerTotal(run->expert.optimizer.get(), test);
    r->checks.Op(FinitePositive(expert_total), "expert test latency not finite/positive");
    ratios.push_back(Percentile(evals, 50) / expert_total);
    final_loss.push_back(loss);
    states += neo.experience().NumStates();
    // Plans of the final policy must be complete.
    for (const query::Query* q : test) {
      r->checks.Op(neo.Plan(*q).plan.IsComplete(), "final plan incomplete");
    }
  }
  if (!last) return pass;
  const double phase_ms = NowMs() - phase0;
  memo_hits -= memo_hits0;
  memo_misses -= memo_misses0;

  const double neo_vs_expert = Percentile(ratios, 50);
  r->checks.Op(std::isfinite(neo_vs_expert) && neo_vs_expert > 0.0,
               "neo_vs_expert not finite");
  r->layers.push_back({"quality.neo_vs_expert", neo_vs_expert});
  r->layers.push_back({"nn.retrain_s", nn_ms / 1000.0});
  r->layers.push_back({"nn.train_samples_per_s", Ratio(samples, nn_ms / 1000.0)});
  r->layers.push_back({"nn.final_loss", Percentile(final_loss, 50)});
  r->layers.push_back({"search.ms_p50", Percentile(search_per_query_ms, 50)});
  r->layers.push_back({"search.ms_p99", Percentile(search_per_query_ms, 99)});
  r->layers.push_back({"engine.memo_hit_rate",
                       Ratio(static_cast<double>(memo_hits),
                             static_cast<double>(memo_hits + memo_misses))});
  r->layers.push_back({"engine.memo_hits", static_cast<double>(memo_hits)});
  r->layers.push_back({"engine.memo_misses", static_cast<double>(memo_misses)});
  r->layers.push_back({"engine.oracle_subsets", static_cast<double>(oracle)});
  r->layers.push_back({"experience.states", static_cast<double>(states)});
  r->layers.push_back({"trace.search_share", Ratio(search_ms, pass.train_ms)});
  r->layers.push_back({"trace.overhead_pct", 100.0 * Ratio(trace_cost_ms, phase_ms)});
  std::string per_seed;
  for (const double x : ratios) per_seed += (per_seed.empty() ? "" : " ") + std::to_string(x);
  r->info.push_back({"neo_vs_expert_per_seed", per_seed});
  r->info.push_back({"episodes", std::to_string(pass.per_query_ms.size())});
  r->info.push_back({"train_queries", std::to_string(train.size())});
  r->info.push_back({"heldout_queries", std::to_string(test.size())});
  return pass;
}

Report RunTrain(const Args& args, Tracer* tr) {
  Report r;
  std::vector<SetupTimes> setups;
  std::vector<TrainPass> passes;
  // The whole workload (set-up, then the schedule) runs kSetupReps times on
  // identical inputs and the medians are reported; only the last pass is
  // evaluated and traced.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    Tracer off(false);
    Tracer* ptr = last ? tr : &off;
    SetupTimes t;
    const double t0 = NowMs();
    const int root = ptr->Add("setup", t0, t0);
    TrainWorld world;
    world.env = MakeEnv(kDataSeed, &t, ptr, root);
    const auto& trained = world.env->split.train;
    for (const query::Query& q : world.env->workload.queries()) {
      if (std::find(trained.begin(), trained.end(), &q) == trained.end()) {
        world.heldout.push_back(&q);
      }
    }
    util::Rng pick = util::Rng(args.seed).Fork(2);
    pick.Shuffle(world.heldout);
    world.heldout.resize(std::min(world.heldout.size(), world.env->split.test.size()));
    for (int k = 0; k < kNeoSeeds; ++k) {
      world.runs.push_back(
          MakeBootstrapped(*world.env, NeoSeed(k), &t, ptr, root));
    }
    t.total_ms = NowMs() - t0;
    ptr->End(root, t0 + t.total_ms);
    setups.push_back(t);
    passes.push_back(RunTrainSchedule(world, last, ptr, &r));
  }
  AddSetupMetrics(setups, &r);
  auto median_of = [&](auto&& f) {
    std::vector<double> v;
    for (const TrainPass& p : passes) v.push_back(f(p));
    return Percentile(v, 50);
  };
  r.e2e.push_back({"train_s", median_of([](const TrainPass& p) { return p.train_ms / 1000.0; })});
  // A request of the learning loop is one training query planned, executed
  // and learned from, with its episode's retrain spread over the episode's
  // queries; its latency is sampled once per episode. Every pass runs the
  // same 36 episodes, so each episode counts at its median over the passes
  // and the percentiles are taken over those 36 (p99 is the slowest).
  r.e2e.push_back({"qps", median_of([](const TrainPass& p) {
                     return p.queries / (p.train_ms / 1000.0);
                   })});
  std::vector<double> episode_ms;
  for (size_t e = 0; e < passes.front().per_query_ms.size(); ++e) {
    std::vector<double> v;
    for (const TrainPass& p : passes) v.push_back(p.per_query_ms[e]);
    episode_ms.push_back(Percentile(v, 50));
  }
  r.e2e.push_back({"latency_p50_ms", Percentile(episode_ms, 50)});
  r.e2e.push_back({"latency_p99_ms", Percentile(episode_ms, 99)});
  return r;
}

// ---------------------------------------------------------------------------
// serve-hot / serve-cold

struct ServeWorld {
  // Declaration order is destruction order reversed: the core stops before
  // the store it writes to and the Neo it serves.
  std::unique_ptr<Env> env;
  std::unique_ptr<NeoRun> run;
  std::deque<query::Workload> stream_sets;   ///< Owns the serve-cold stream.
  std::vector<const query::Query*> stream;   ///< Requests, in submit order.
  std::string store_dir;
  std::unique_ptr<store::ExperienceStore> store;
  std::unique_ptr<serve::ServingCore> core;
};

/// One request as the client saw it; kept only in the traced run.
struct RequestRecord {
  int64_t index = 0;           ///< Position in the request stream.
  double executed_ms = 0.0;    ///< ServeResult::latency_ms.
  double submit_ms = 0.0;
  double ready_ms = 0.0;
  double queue_ms = 0.0;
  double plan_ms = 0.0;
  double total_ms = 0.0;
  bool pinned = false;  ///< Served from the store without a search.
  int expansions = 0;
  bool hurried = false;
  size_t evaluations = 0;
  size_t cache_hits = 0;
  size_t rows_reused = 0;
  size_t rows_recomputed = 0;
  size_t leaf_tier_hits = 0;
};

/// What one closed-loop client observed.
struct ClientLog {
  /// (position in the request stream, Submit -> future ready).
  std::vector<std::pair<int64_t, double>> latency_ms;
  std::vector<RequestRecord> records;
  double trace_cost_ms = 0.0;
  Checks checks;
};

/// `count` distinct JOB queries with fresh literals, none of them in the
/// workload the model was trained on.
void MakeColdStream(const Env& env, uint64_t seed, size_t count, ServeWorld* w) {
  const util::Rng literals(seed);
  std::unordered_set<uint64_t> seen;
  for (const query::Query& q : env.workload.queries()) seen.insert(q.fingerprint);
  for (uint64_t i = 0; w->stream.size() < count && i < count; ++i) {
    w->stream_sets.push_back(
        query::MakeJobWorkload(env.ds.schema, *env.ds.db, literals.Fork(1000 + i).Next()));
    for (const query::Query& q : w->stream_sets.back().queries()) {
      if (w->stream.size() < count && seen.insert(q.fingerprint).second) {
        w->stream.push_back(&q);
      }
    }
  }
}

/// Stops the world's core, frees everything and deletes its store directory.
/// The freed memory goes back to the system, so peak_rss_mb measures the
/// world that is timed, not whether the allocator kept an earlier set-up's
/// memory (with serve-cold's warm-up it did in about half the runs, +9%).
void DropWorld(std::unique_ptr<ServeWorld>* world) {
  if (*world == nullptr) return;
  const std::string dir = (*world)->store_dir;
  world->reset();
  if (!dir.empty()) std::filesystem::remove_all(dir);
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// Closed-loop client: takes the next request index from `next` until the
/// stream ends, index `end` (if > 0) is reached, or else the deadline passes.
/// It sleeps on each future, so it takes no processor from the workers.
void Client(serve::ServingCore* core, const std::vector<const query::Query*>& stream,
            bool wrap, bool learn, std::atomic<int64_t>* next, int64_t end,
            double deadline_ms, bool trace, ClientLog* log) {
  for (;;) {
    if (end <= 0 && NowMs() >= deadline_ms) break;
    const int64_t i = next->fetch_add(1);
    if (end > 0 && i >= end) break;
    if (!wrap && static_cast<size_t>(i) >= stream.size()) break;
    const query::Query& q = *stream[static_cast<size_t>(i) % stream.size()];
    const double t0 = NowMs();
    const serve::ServeResult res = core->Submit(q, learn).get();
    const double t1 = NowMs();
    log->latency_ms.emplace_back(i, t1 - t0);
    const bool ok = res.status.ok() &&
                    (res.served_from_store || res.search.plan.IsComplete()) &&
                    FinitePositive(res.latency_ms);
    log->checks.Op(ok, ok ? std::string() : "request " + std::to_string(i) + ": " +
                                                res.status.ToString());
    if (trace) {
      const double c0 = NowMs();
      RequestRecord rec;
      rec.index = i;
      rec.executed_ms = res.latency_ms;
      rec.submit_ms = t0;
      rec.ready_ms = t1;
      rec.queue_ms = res.queue_ms;
      rec.plan_ms = res.plan_ms;
      rec.total_ms = res.total_ms;
      rec.pinned = res.served_from_store;
      rec.expansions = res.search.expansions;
      rec.hurried = res.search.hurried;
      rec.evaluations = res.search.evaluations;
      rec.cache_hits = res.search.cache_hits;
      rec.rows_reused = res.search.rows_reused;
      rec.rows_recomputed = res.search.rows_recomputed;
      rec.leaf_tier_hits = res.search.leaf_tier_hits;
      log->records.push_back(rec);
      log->trace_cost_ms += NowMs() - c0;
    }
  }
}

/// Serves the stream from request `first` with the workload's closed-loop
/// clients, up to request `end` (if > 0) or else until `deadline_ms`.
/// serve-hot: one client on this thread. serve-cold: two clients that learn.
/// Returns what the clients observed, merged.
ClientLog ServeClosedLoop(serve::ServingCore* core,
                          const std::vector<const query::Query*>& stream, bool cold,
                          int64_t first, int64_t end, double deadline_ms, bool trace) {
  std::atomic<int64_t> next{first};
  std::vector<ClientLog> logs(cold ? 2 : 1);
  if (!cold) {
    Client(core, stream, /*wrap=*/true, /*learn=*/false, &next, end, deadline_ms, trace,
           &logs[0]);
  } else {
    std::vector<std::thread> threads;
    for (ClientLog& log : logs) {
      threads.emplace_back(Client, core, std::cref(stream), /*wrap=*/false, /*learn=*/true,
                           &next, end, deadline_ms, trace, &log);
    }
    for (std::thread& th : threads) th.join();
  }
  ClientLog all;
  for (ClientLog& l : logs) {
    all.latency_ms.insert(all.latency_ms.end(), l.latency_ms.begin(), l.latency_ms.end());
    all.records.insert(all.records.end(), l.records.begin(), l.records.end());
    all.trace_cost_ms += l.trace_cost_ms;
    all.checks.Merge(l.checks);
  }
  return all;
}

/// serve-hot's latency_p99_ms. The rotation serves each query ~180 times;
/// every request counts at its query's median latency, and the p99 is taken
/// over those. A query that got slower moves it; a host stall that hits a
/// few serves of a query does not.
double QueryMedianP99(const std::vector<std::pair<int64_t, double>>& latency,
                      size_t rotation) {
  std::vector<std::vector<double>> by_query(rotation);
  for (const auto& [i, ms] : latency) by_query[static_cast<size_t>(i) % rotation].push_back(ms);
  std::vector<double> median(rotation);
  for (size_t q = 0; q < rotation; ++q) median[q] = Percentile(by_query[q], 50);
  std::vector<double> v;
  for (const auto& [i, ms] : latency) v.push_back(median[static_cast<size_t>(i) % rotation]);
  return Percentile(v, 99);
}

/// serve-cold's latency_p99_ms. Each query is served once, so the requests
/// are cut, in stream order, into blocks of kP99Block and the median of the
/// blocks' p99s is reported: a burst of host noise moves only the blocks it
/// falls in. With fewer requests than one block, the p99 of all of them.
double BlockMedianP99(std::vector<std::pair<int64_t, double>> latency) {
  std::sort(latency.begin(), latency.end());
  std::vector<double> p99s, block;
  for (const auto& [i, ms] : latency) {
    block.push_back(ms);
    if (block.size() < kP99Block) continue;
    p99s.push_back(Percentile(block, 99));
    block.clear();
  }
  if (p99s.empty()) return Percentile(block, 99);
  return Percentile(p99s, 50);
}

std::unique_ptr<ServeWorld> SetupServe(const Args& args, bool cold, size_t stream_len,
                                       SetupTimes* t, Checks* checks, Tracer* tr) {
  const double t0 = NowMs();
  const int root = tr->Add("setup", t0, t0);
  auto w = std::make_unique<ServeWorld>();
  w->env = MakeEnv(kDataSeed, t, tr, root);
  w->run = MakeBootstrapped(*w->env, NeoSeed(0), t, tr, root);
  // The serving model: train's schedule for its first Neo seed.
  double p0 = NowMs();
  for (int e = 0; e < kEpisodes; ++e) w->run->neo->RunEpisode(w->env->split.train);
  double p1 = NowMs();
  t->pretrain_ms += p1 - p0;
  tr->Add("setup.pretrain", p0, p1, root);

  serve::ServingOptions sopt;
  sopt.search = w->run->neo->config().search;
  if (cold) {
    sopt.workers = 2;
    sopt.coalesce = false;
    MakeColdStream(*w->env, args.seed, stream_len, w.get());
    w->store_dir = args.tmp_dir + "/neobench-store";
    std::filesystem::remove_all(w->store_dir);
    store::StoreOptions stopt;
    stopt.dir = w->store_dir;
    w->store = std::make_unique<store::ExperienceStore>(stopt);
    const util::Status s = w->store->Open();
    NEO_CHECK_MSG(s.ok(), "cannot open the experience store");
    sopt.store = w->store.get();
    w->core = std::make_unique<serve::ServingCore>(w->run->neo.get(), sopt);
    // Warm-up: the head of the stream, served as the timed phase serves.
    checks->Merge(ServeClosedLoop(w->core.get(), w->stream, /*cold=*/true, 0, kColdWarmup,
                                  0.0, /*trace=*/false)
                      .checks);
    w->core->Drain();
  } else {
    sopt.workers = 1;
    for (const query::Query& q : w->env->workload.queries()) w->stream.push_back(&q);
    util::Rng order = util::Rng(args.seed).Fork(1);  // The seed orders the rotation.
    order.Shuffle(w->stream);
    w->core = std::make_unique<serve::ServingCore>(w->run->neo.get(), sopt);
    for (const query::Query* q : w->stream) w->core->ServeSync(*q, /*learn=*/false);
  }
  const double p2 = NowMs();
  t->prepare_ms += p2 - p1;
  tr->Add("setup.prepare", p1, p2, root);
  t->total_ms = p2 - t0;
  tr->End(root, p2);
  return w;
}

Report RunServe(const Args& args, bool cold, Tracer* tr) {
  Report r;
  // serve-hot serves for --seconds. serve-cold serves a fixed stream of 400
  // requests per --seconds (about that many seconds today), after the
  // kColdWarmup requests of set-up: every request adds state, so a fixed
  // amount of work keeps peak_rss_mb comparable between runs and between
  // versions of different speed.
  const int64_t limit = args.requests > 0 ? args.requests
                        : cold            ? static_cast<int64_t>(400.0 * args.seconds)
                                          : 0;
  const int64_t first = cold ? kColdWarmup : 0;  // First request of the timed phase.
  const int64_t end = limit > 0 ? first + limit : 0;
  std::vector<SetupTimes> setups;
  std::unique_ptr<ServeWorld> world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    DropWorld(&world);
    SetupTimes t;
    world = SetupServe(args, cold, static_cast<size_t>(end), &t, &r.checks, tr);
    setups.push_back(t);
  }
  AddSetupMetrics(setups, &r);
  {
    std::vector<double> train_s;
    for (const SetupTimes& s : setups) train_s.push_back(s.pretrain_ms / 1000.0);
    r.e2e.push_back({"train_s", Percentile(train_s, 50)});
  }
  ServeWorld& w = *world;
  serve::ServingCore& core = *w.core;
  engine::ExecutionEngine& eng = *w.run->engine;

  const serve::ServingStats s0 = core.stats();
  const size_t memo_hits0 = eng.latency_cache_hits();
  const size_t memo_misses0 = eng.latency_cache_misses();
  const store::StoreStats st0 = w.store ? w.store->stats() : store::StoreStats{};
  const double wchar0 = WrittenBytes();

  const int clients = cold ? 2 : 1;
  const double phase0 = NowMs();
  const ClientLog all = ServeClosedLoop(&core, w.stream, cold, first, end,
                                        phase0 + args.seconds * 1000.0, tr->on());
  core.Drain();
  const double phase_ms = NowMs() - phase0;
  const double wchar = WrittenBytes() - wchar0;

  const serve::ServingStats s1 = core.stats();
  const size_t memo_hits = eng.latency_cache_hits() - memo_hits0;
  const size_t memo_misses = eng.latency_cache_misses() - memo_misses0;
  const size_t oracle_subsets = eng.oracle().CacheSize();

  r.checks.Merge(all.checks);
  const size_t served = all.latency_ms.size();
  const uint64_t completed = s1.total_latency.count() - s0.total_latency.count();
  r.checks.Op(served > 0 && completed == served,
              "served " + std::to_string(completed) + " of " + std::to_string(served) +
                  " sent");

  // Durability: a fresh store on the same directory sees every type.
  if (cold) {
    store::StoreOptions ropt;
    ropt.dir = w.store_dir;
    store::ExperienceStore reopened(ropt);
    const util::Status s = reopened.Open();
    r.checks.Op(s.ok() && !reopened.recovery().snapshot_corrupt &&
                    !reopened.recovery().wal_corrupt &&
                    reopened.NumTypes() == w.store->NumTypes(),
                "store reopen: " + s.ToString() + ", types " +
                    std::to_string(reopened.NumTypes()) + " vs " +
                    std::to_string(w.store->NumTypes()));
  }

  // Plan quality, from the traced run: Neo's executed latency over the first
  // kQualityRequests requests of the timed phase against the expert's plans
  // for the same queries. The expert side runs after the timed phase, so it
  // cannot warm the oracle for the served plans.
  double neo_total = 0.0, expert_total = 0.0;
  {
    std::unordered_map<const query::Query*, double> expert_ms;
    for (const RequestRecord& rec : all.records) {
      if (rec.index >= first + kQualityRequests) continue;
      const query::Query* q = w.stream[static_cast<size_t>(rec.index) % w.stream.size()];
      auto it = expert_ms.find(q);
      if (it == expert_ms.end()) {
        it = expert_ms
                 .emplace(q, eng.ExecutePlan(*q, w.run->expert.optimizer->Optimize(*q)))
                 .first;
      }
      neo_total += rec.executed_ms;
      expert_total += it->second;
    }
  }
  const double neo_vs_expert = Ratio(neo_total, expert_total);
  if (tr->on()) {
    r.checks.Op(std::isfinite(neo_vs_expert) && neo_vs_expert > 0.0,
                "neo_vs_expert not finite");
  }

  std::vector<double> latency;
  for (const auto& [i, ms] : all.latency_ms) latency.push_back(ms);
  r.e2e.push_back({"qps", static_cast<double>(served) / (phase_ms / 1000.0)});
  r.e2e.push_back({"latency_p50_ms", Percentile(latency, 50)});
  r.e2e.push_back({"latency_p99_ms", cold ? BlockMedianP99(all.latency_ms)
                                          : QueryMedianP99(all.latency_ms, w.stream.size())});
  r.info.push_back({"latency_p99_single_ms", std::to_string(Percentile(latency, 99))});

  // Per-layer metrics, from the per-request records of the traced run.
  r.layers.push_back({"quality.neo_vs_expert", neo_vs_expert});
  std::vector<double> plan_ms, queue_ms, post_ms, handoff_ms;
  double expansions = 0, hurried = 0, evaluations = 0, hits = 0, reused = 0,
         recomputed = 0, leaf = 0, searched = 0, pinned = 0;
  for (const RequestRecord& rec : all.records) {
    const int64_t id = rec.index;
    const int req = tr->Add("request", rec.submit_ms, rec.ready_ms, -1, id);
    const double picked = rec.submit_ms + rec.queue_ms;
    const double searched_at = picked + rec.plan_ms;
    const double done = rec.submit_ms + rec.total_ms;
    tr->Add("serve.queue", rec.submit_ms, picked, req, id);
    if (!rec.pinned) tr->Add("search", picked, searched_at, req, id);
    tr->Add("serve.post_search", searched_at, done, req, id);
    tr->Add("serve.handoff", done, rec.ready_ms, req, id);
    queue_ms.push_back(rec.queue_ms);
    post_ms.push_back(rec.total_ms - rec.queue_ms - rec.plan_ms);
    handoff_ms.push_back(rec.ready_ms - rec.submit_ms - rec.total_ms);
    if (rec.pinned) {
      ++pinned;
      continue;
    }
    ++searched;
    plan_ms.push_back(rec.plan_ms);
    expansions += rec.expansions;
    hurried += rec.hurried ? 1 : 0;
    evaluations += static_cast<double>(rec.evaluations);
    hits += static_cast<double>(rec.cache_hits);
    reused += static_cast<double>(rec.rows_reused);
    recomputed += static_cast<double>(rec.rows_recomputed);
    leaf += static_cast<double>(rec.leaf_tier_hits);
  }
  const double requests = static_cast<double>(served);
  const double act_hits =
      static_cast<double>(s1.activation_cache.hits - s0.activation_cache.hits);
  const double act_misses =
      static_cast<double>(s1.activation_cache.misses - s0.activation_cache.misses);
  r.layers.push_back({"search.ms_p50", Percentile(plan_ms, 50)});
  r.layers.push_back({"search.ms_p99", Percentile(plan_ms, 99)});
  r.layers.push_back({"search.expansions_per_req", Ratio(expansions, searched)});
  r.layers.push_back({"search.hurried_frac", Ratio(hurried, searched)});
  r.layers.push_back({"search.evaluations_per_req", Ratio(evaluations, searched)});
  r.layers.push_back({"search.score_hit_rate", Ratio(hits, hits + evaluations)});
  r.layers.push_back({"search.score_hits", hits});
  r.layers.push_back({"search.evaluations", evaluations});
  r.layers.push_back({"search.row_reuse_rate", Ratio(reused, reused + recomputed)});
  r.layers.push_back({"search.leaf_tier_hits_per_req", Ratio(leaf, searched)});
  r.layers.push_back({"serve.queue_ms_p50", Percentile(queue_ms, 50)});
  r.layers.push_back({"serve.queue_ms_p99", Percentile(queue_ms, 99)});
  r.layers.push_back({"serve.post_search_ms_p50", Percentile(post_ms, 50)});
  r.layers.push_back({"serve.post_search_ms_p99", Percentile(post_ms, 99)});
  r.layers.push_back({"serve.handoff_ms_p50", Percentile(handoff_ms, 50)});
  r.layers.push_back({"serve.handoff_ms_p99", Percentile(handoff_ms, 99)});
  r.layers.push_back({"serve.score_cache_evictions",
                      static_cast<double>(s1.score_cache.evictions -
                                          s0.score_cache.evictions)});
  r.layers.push_back({"serve.activation_cache_hit_rate",
                      Ratio(act_hits, act_hits + act_misses)});
  r.layers.push_back({"engine.memo_hit_rate",
                      Ratio(static_cast<double>(memo_hits),
                            static_cast<double>(memo_hits + memo_misses))});
  r.layers.push_back({"engine.memo_hits", static_cast<double>(memo_hits)});
  r.layers.push_back({"engine.memo_misses", static_cast<double>(memo_misses)});
  r.layers.push_back({"engine.oracle_subsets", static_cast<double>(oracle_subsets)});
  r.layers.push_back({"experience.states",
                      static_cast<double>(w.run->neo->experience().NumStates())});
  if (w.store) {
    const store::StoreStats st1 = w.store->stats();
    r.layers.push_back({"store.types", static_cast<double>(w.store->NumTypes())});
    r.layers.push_back({"store.pinned_frac", Ratio(pinned, requests)});
    r.layers.push_back({"store.wal_records_per_req",
                        Ratio(static_cast<double>(st1.wal_records - st0.wal_records),
                              requests)});
    r.layers.push_back({"store.snapshots", static_cast<double>(st1.snapshots - st0.snapshots)});
    r.layers.push_back({"store.write_bytes_per_req", Ratio(wchar, requests)});
  }
  {
    double search_total = 0.0, request_total = 0.0;
    for (const RequestRecord& rec : all.records) {
      if (!rec.pinned) search_total += rec.plan_ms;
      request_total += rec.ready_ms - rec.submit_ms;
    }
    r.layers.push_back({"trace.search_share", Ratio(search_total, request_total)});
  }
  r.layers.push_back({"trace.overhead_pct",
                      100.0 * Ratio(all.trace_cost_ms, phase_ms * clients)});

  r.info.push_back({"requests", std::to_string(served)});
  r.info.push_back({"clients", std::to_string(clients)});
  r.info.push_back({"workers", std::to_string(core.options().workers)});
  r.info.push_back({"stream", std::to_string(w.stream.size())});
  r.info.push_back({"timed_phase_s", std::to_string(phase_ms / 1000.0)});

  DropWorld(&world);
  return r;
}

// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void AppendMetrics(std::string* out, const char* key, const Metrics& m) {
  *out += std::string("\"") + key + "\":{";
  char buf[64];
  for (size_t i = 0; i < m.size(); ++i) {
    // JSON has no NaN or infinity; a non-finite value also fails a check.
    std::snprintf(buf, sizeof(buf), std::isfinite(m[i].second) ? "%.17g" : "null",
                  m[i].second);
    *out += (i ? ",\"" : "\"") + m[i].first + "\":" + buf;
  }
  *out += "}";
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--requests") {
      a->requests = std::atoll(v);
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else if (k == "--tmp-dir") {
      a->tmp_dir = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && a->seconds > 0.0 &&
         (a->workload == "train" || a->workload == "serve-hot" ||
          a->workload == "serve-cold");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: neobench --workload train|serve-hot|serve-cold --seed N"
                 " --seconds S [--trace 0|1] [--requests N]"
                 " [--trace-out PATH] [--tmp-dir DIR]\n");
    return 2;
  }
  Tracer tracer(args.trace);
  Report r = args.workload == "train" ? RunTrain(args, &tracer)
                                      : RunServe(args, args.workload == "serve-cold",
                                                 &tracer);
  r.e2e.push_back({"peak_rss_mb", PeakRssMb()});
  if (tracer.on()) {
    r.self_ms = tracer.SelfMs();
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
      std::fprintf(stderr, "neobench: cannot write %s\n", args.trace_out.c_str());
    }
  }

  std::string out = "{\"workload\":\"" + args.workload + "\",\"seed\":" +
                    std::to_string(args.seed) + ",\"trace\":" +
                    (args.trace ? "true" : "false");
  out += ",\"host\":{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"kernel_arch\":\"" + JsonEscape(nn::KernelArchString()) +
         "\",\"build_type\":\"" NEOBENCH_BUILD_TYPE "\"}";
  out += ",\"attempted\":" + std::to_string(r.checks.attempted) +
         ",\"failed\":" + std::to_string(r.checks.failed) + ",\"notes\":[";
  for (size_t i = 0; i < r.checks.notes.size(); ++i) {
    out += (i ? ",\"" : "\"") + JsonEscape(r.checks.notes[i]) + "\"";
  }
  out += "],";
  AppendMetrics(&out, "e2e", r.e2e);
  out += ",";
  AppendMetrics(&out, "layers", r.layers);
  Metrics self(r.self_ms.begin(), r.self_ms.end());
  out += ",";
  AppendMetrics(&out, "self_ms", self);
  out += ",\"info\":{";
  for (size_t i = 0; i < r.info.size(); ++i) {
    out += (i ? ",\"" : "\"") + r.info[i].first + "\":\"" + JsonEscape(r.info[i].second) +
           "\"";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return r.checks.failed == 0 ? 0 : 1;
}
