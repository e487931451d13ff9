// Durable per-query-type experience store with drift detection and adaptive
// serving modes (the ROADMAP's AQO-style item; cf. AQO's hash.c /
// auto_tuning.c / storage layers, and paper §2's experience collection).
//
// ## Query types
//
// The unit of experience is the *query type*: `Query::type_hash`, a
// constant-insensitive normalization of `Query::fingerprint` (predicate
// literals dropped), so all instantiations of one parameterized query —
// "differ only in constants" — share a record. Each type accumulates:
// observed serve latencies (EWMA + a baseline window), the best-known
// complete plan with its observed latency, regression counters, and a
// serving mode.
//
// ## Durability: WAL + snapshots
//
// Two files under StoreOptions::dir (empty dir = volatile in-memory store):
//
//   wal.log       'NEOL' v1 header, then append-only frames
//                 [u32 payload_len][u32 type][u64 lsn][payload][u64 fnv1a]
//   snapshot.bin  'NEOT' v2: [magic][version][last_lsn][num_types]
//                 [per-type records][u64 fnv1a over all preceding bytes],
//                 published atomically (tmp + fflush + fsync + rename). A
//                 per-type record is the type's mode, drift and best-plan
//                 state; v1 also carried a per-type correction list, and a
//                 v1 snapshot now reads as an unsupported version.
//
// Record types: kObservation (one serve's latency + flags), kBestPlan (a
// better complete plan was found), kMode (a *manual* mode set — automatic
// transitions are never logged, see "replay determinism"). Replay counts a
// frame of any other type (4, the cardinality correction v1 stores logged,
// or one from a future version) and skips it without touching any type's
// state; so does a known frame whose payload fails to decode.
//
// ### Recovery invariant
//
// Open() loads the newest valid snapshot, then replays every WAL frame with
// lsn > snapshot.last_lsn, accepting the longest valid prefix; the WAL is
// then truncated to that prefix before appending resumes. A kill at ANY byte
// offset of the store's write stream loses at most the suffix appended since
// the last Sync()/Snapshot(), and never corrupts state:
//   - torn frame at EOF (crash mid-append)      -> dropped silently, kOk;
//   - torn snapshot tmp (crash mid-publish)     -> ignored; previous
//     published snapshot still authoritative (rename is the commit point);
//   - crash between snapshot publish and WAL reset -> stale frames carry
//     lsn <= last_lsn and are skipped (the LSN gate makes replay
//     idempotent even though EWMA updates are not);
//   - bit rot (checksum mismatch on a complete frame, or anywhere in the
//     snapshot) -> kDataLoss is REPORTED and recovery proceeds degraded
//     (valid WAL prefix only / empty state); corrupted bytes are never
//     silently loaded.
//
// ### Replay determinism
//
// Observations are logged as raw inputs (latency, from_search, improved)
// and re-applied through the SAME ApplyObservation state machine at
// recovery, so every automatic mode transition, counter, EWMA, and baseline
// re-derives exactly — state machine replay, not state copying. Anything
// the machine consults must therefore be a pure function of durable state
// (e.g. the probe schedule is `exploit_run_len % probe_interval == 0`, not
// a timer). kMode frames exist only for Freeze()/SetMode() calls, which
// originate outside the machine.
//
// ## Mode state machine (per type)
//
//            drift: ewma > demote_factor x baseline (needs best plan)
//          ┌──────────────────────────────────────────────┐
//          │  stability: stable_streak searches w/o a     │
//          │  better plan found                           ▼
//       kLearn ◄──────────────────────────────────── kExploit
//          ▲      drift entries: healthy_probes probes in a row
//          │      back under healthy_factor x baseline
//          │      any entry: exploit_bad_streak consecutive serves
//          └───── above demote_factor x baseline ("best" plan itself
//                 regressed -> baseline reset, re-search)
//
//       kFrozen: manual (Freeze/SetMode) only — pinned plan, no durable
//       updates, no automatic exit.
//
// kLearn serves search results and records everything; kExploit serves the
// best-known plan and skips search entirely (Decide().use_pinned); drift
// entries probe periodically so recovered types resume learning. The store
// COMPOSES with the PR-6 circuit breaker: the breaker guards individual
// fingerprints against the expert fallback per-serve, while the store
// governs whole types across restarts.
//
// ## Integration & threading
//
// `Neo::ServeAndMaybeLearn` records every serve (store attached via
// `Neo::SetExperienceStore`; nullptr detaches, and a detached store records
// nothing); `ServingCore` consults Decide() before searching, syncs the WAL
// every store_sync_every requests, and flushes on Drain()/Stop(). Nothing
// the store holds feeds the featurizer or plan search: it changes which plan
// a serve runs (Decide, BestPlanFor), never how a plan is scored. One
// internal mutex serializes all public methods; WAL append order equals
// application order, which is what replay determinism needs. File I/O runs
// through util::FaultInjector's kIoShortWrite / kIoFailure / crash-budget
// sites when an injector is attached.
#pragma once

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/plan/plan.h"
#include "src/query/query.h"
#include "src/store/store_file.h"
#include "src/util/status.h"

namespace neo::store {

enum class TypeMode : uint8_t { kLearn = 0, kExploit = 1, kFrozen = 2 };
const char* TypeModeName(TypeMode mode);

/// Per-type drift detector + mode-transition thresholds.
struct DriftOptions {
  /// EWMA smoothing for observed latency.
  double ewma_alpha = 0.25;
  /// First N observations of a type form its baseline mean.
  int baseline_window = 8;
  /// Drift: EWMA above this multiple of baseline demotes a learning type to
  /// its best-known plan.
  double demote_factor = 2.5;
  /// A probe is healthy when its latency is within this multiple of
  /// baseline.
  double healthy_factor = 1.25;
  /// Consecutive healthy probes that re-promote a drift-demoted type.
  int healthy_probes = 3;
  /// In exploit mode, every k-th serve is a probe.
  int probe_interval = 4;
  /// Consecutive searched serves without a better plan that promote a
  /// stable type to exploit (0 = stability promotion off).
  int stable_streak = 0;
  /// Consecutive regressed serves in exploit mode that force the type back
  /// to learn with a reset baseline (the pinned plan itself went bad).
  int exploit_bad_streak = 4;
};

struct StoreOptions {
  /// Durability root (two files created inside). Empty = in-memory only.
  std::string dir;
  DriftOptions drift;
  /// Take a snapshot (and reset the WAL) once this many frames accumulate;
  /// checked at Sync()/Flush() boundaries. 0 = only explicit Snapshot().
  int snapshot_every = 1024;
};

/// Process-lifetime counters (not persisted; per-type durable state lives in
/// the records themselves).
struct StoreStats {
  uint64_t observations = 0;
  uint64_t search_serves = 0;
  uint64_t exploit_serves = 0;
  uint64_t probe_serves = 0;
  uint64_t frozen_serves = 0;
  uint64_t best_updates = 0;
  uint64_t mode_transitions = 0;
  uint64_t drift_demotions = 0;
  uint64_t repromotions = 0;
  uint64_t stability_promotions = 0;
  uint64_t exploit_escapes = 0;
  uint64_t wal_records = 0;
  uint64_t wal_append_failures = 0;
  uint64_t snapshots = 0;
  uint64_t snapshot_failures = 0;
  uint64_t plan_decode_failures = 0;
};

/// What Open() found on disk.
struct RecoveryInfo {
  bool opened = false;
  bool snapshot_loaded = false;
  bool snapshot_corrupt = false;
  bool wal_corrupt = false;
  uint64_t snapshot_lsn = 0;
  uint64_t snapshot_types = 0;
  uint64_t wal_frames_seen = 0;
  uint64_t wal_frames_replayed = 0;  ///< Frames past the LSN gate.
  uint64_t wal_torn_bytes = 0;
};

/// Read-only view of one type's durable state, for tests and tooling.
struct TypeView {
  uint64_t type_hash = 0;
  TypeMode mode = TypeMode::kLearn;
  bool exploit_from_drift = false;
  uint64_t serves = 0;
  uint64_t search_serves = 0;
  uint64_t exploit_run_len = 0;
  double ewma = 0.0;
  double baseline_mean = 0.0;
  int baseline_n = 0;
  int stable_run = 0;
  int healthy_run = 0;
  int exploit_bad_run = 0;
  uint64_t demotions = 0;
  bool has_best = false;
  double best_latency_ms = 0.0;
  uint64_t best_plan_hash = 0;
};

/// The serving decision for one query.
struct Decision {
  bool type_known = false;
  TypeMode mode = TypeMode::kLearn;
  /// True: skip search and execute `pinned` (exploit/frozen with a best
  /// plan). False: search normally.
  bool use_pinned = false;
  bool is_probe = false;
  plan::PartialPlan pinned;
  double pinned_latency_ms = 0.0;
};

class ExperienceStore {
 public:
  explicit ExperienceStore(StoreOptions options);
  ~ExperienceStore();

  ExperienceStore(const ExperienceStore&) = delete;
  ExperienceStore& operator=(const ExperienceStore&) = delete;

  /// Mounts the durable state (see "Recovery invariant" above). kOk covers
  /// fresh stores and pure torn-tail losses; kDataLoss means corruption was
  /// detected (recovery proceeded degraded on the valid remainder — state
  /// is consistent, loss is reported, nothing invalid was loaded). Call
  /// once before use; in-memory stores (empty dir) always return kOk.
  util::Status Open();
  const RecoveryInfo& recovery() const { return recovery_; }

  /// Mode consultation before planning. When use_pinned, `pinned.query` is
  /// set to `&query` and the plan is ready to execute.
  Decision Decide(const query::Query& query);

  /// Fetches the type's best-known plan regardless of mode (Decide only
  /// pins in exploit/frozen; this also serves learn-mode types). Used by
  /// the serving core's degradation ladder for no-search degraded serves.
  /// False when the type is unknown, has no best plan, or the stored bytes
  /// fail structural decode. On success `out->query` is set to `&query`.
  bool BestPlanFor(const query::Query& query, plan::PartialPlan* out,
                   double* latency_ms);

  /// Records one executed serve. `from_search`: the plan came from a live
  /// search (learn-mode serve), as opposed to a pinned/fallback plan.
  /// Complete searched plans that beat the type's best are captured as the
  /// new best. Drives the mode state machine; appends WAL frames.
  void RecordServe(const query::Query& query, const plan::PartialPlan& plan,
                   double latency_ms, bool from_search);

  /// fsyncs the WAL (the durability boundary) and snapshots when
  /// snapshot_every frames have accumulated.
  util::Status Sync();
  /// Forces a snapshot + WAL reset now.
  util::Status Snapshot();

  /// Manual mode control (logged as kMode frames). Freeze pins the current
  /// best plan permanently; both require the type to exist, and any mode
  /// needing a pin requires a best plan.
  util::Status Freeze(uint64_t type_hash);
  util::Status SetMode(uint64_t type_hash, TypeMode mode);

  StoreStats stats() const;
  size_t NumTypes() const;
  std::vector<TypeView> View() const;  ///< Sorted by type_hash.
  bool ViewOf(uint64_t type_hash, TypeView* out) const;

  /// Attaches the file-I/O fault sites (not owned; nullptr detaches).
  void SetFaultInjector(util::FaultInjector* injector);

  bool durable() const { return !options_.dir.empty(); }
  const StoreOptions& options() const { return options_; }
  std::string wal_path() const;
  std::string snapshot_path() const;

 private:
  struct TypeState {
    TypeMode mode = TypeMode::kLearn;
    bool exploit_from_drift = false;
    double ewma = 0.0;
    bool ewma_init = false;
    double baseline_sum = 0.0;
    int baseline_n = 0;
    uint64_t serves = 0;
    uint64_t search_serves = 0;
    uint64_t exploit_run_len = 0;
    int stable_run = 0;
    int healthy_run = 0;
    int exploit_bad_run = 0;
    uint64_t demotions = 0;
    bool has_best = false;
    double best_latency_ms = 0.0;
    uint64_t best_plan_hash = 0;
    std::vector<uint8_t> best_plan_bytes;
    /// Lazily decoded from best_plan_bytes at Decide() time (rel_masks are
    /// per-type-stable: all queries of a type share the relation set).
    plan::PartialPlan decoded_best;
    bool decoded_valid = false;
  };

  enum RecordType : uint32_t {
    kObservation = 1,
    kBestPlan = 2,
    kModeSet = 3,
  };

  // The deterministic state machine (used live and in replay; see "Replay
  // determinism"). Callers hold mu_.
  void ApplyObservation(TypeState* t, double latency_ms, bool from_search,
                        bool improved);
  void ApplyBestPlan(TypeState* t, double latency_ms, uint64_t plan_hash,
                     std::vector<uint8_t> plan_bytes);
  void ApplyModeSet(TypeState* t, TypeMode mode);

  void TransitionLocked(TypeState* t, TypeMode to, bool from_drift);
  double BaselineLocked(const TypeState& t) const;

  void AppendWalLocked(uint32_t type, const ByteWriter& payload);
  util::Status SnapshotLocked();
  util::Status ReplayWalLocked(uint64_t snapshot_lsn);
  void SerializeLocked(ByteWriter* out) const;
  util::Status DeserializeSnapshot(const std::vector<uint8_t>& bytes,
                                   uint64_t* last_lsn);
  TypeView ViewLocked(uint64_t hash, const TypeState& t) const;

  StoreOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, TypeState> types_;
  StoreStats stats_;
  RecoveryInfo recovery_;
  WalWriter wal_;
  util::FaultInjector* injector_ = nullptr;  ///< Not owned; may be null.
  uint64_t next_lsn_ = 1;
  uint64_t frames_since_snapshot_ = 0;
  /// True while Open() replays the WAL: Apply* skip process-lifetime stats
  /// so stats_ reflects live activity only.
  bool replaying_ = false;
  /// Latched when the injector's crash budget killed the emulated process:
  /// all further disk activity is silently skipped (state on disk stays
  /// frozen at the kill byte; the in-memory store keeps serving).
  bool io_dead_ = false;
  /// Latched when durable appends failed unrecoverably; the store degrades
  /// to in-memory operation.
  bool wal_degraded_ = false;
};

}  // namespace neo::store
