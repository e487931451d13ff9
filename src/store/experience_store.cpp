#include "src/store/experience_store.h"

#include <algorithm>

#include <errno.h>
#include <sys/stat.h>

#include "src/store/plan_codec.h"

namespace neo::store {

namespace {
constexpr uint8_t kFlagFromSearch = 1u << 0;
constexpr uint8_t kFlagImproved = 1u << 1;
}  // namespace

const char* TypeModeName(TypeMode mode) {
  switch (mode) {
    case TypeMode::kLearn: return "learn";
    case TypeMode::kExploit: return "exploit";
    case TypeMode::kFrozen: return "frozen";
  }
  return "?";
}

ExperienceStore::ExperienceStore(StoreOptions options)
    : options_(std::move(options)) {}

ExperienceStore::~ExperienceStore() {
  std::lock_guard<std::mutex> lock(mu_);
  wal_.Close();
}

std::string ExperienceStore::wal_path() const { return options_.dir + "/wal.log"; }
std::string ExperienceStore::snapshot_path() const {
  return options_.dir + "/snapshot.bin";
}

void ExperienceStore::SetFaultInjector(util::FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = injector;
  wal_.SetFaultInjector(injector);
}

util::Status ExperienceStore::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  recovery_ = RecoveryInfo{};
  recovery_.opened = true;
  if (!durable()) return util::Status::Ok();

  if (::mkdir(options_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return util::Status::Internal("cannot create store dir: " + options_.dir);
  }

  // 1. Newest valid snapshot (rename-published, so it is whole or absent).
  uint64_t snapshot_lsn = 0;
  std::vector<uint8_t> snap_bytes;
  util::Status snap_read = ReadFileBytes(snapshot_path(), &snap_bytes);
  if (snap_read.ok()) {
    util::Status s = DeserializeSnapshot(snap_bytes, &snapshot_lsn);
    if (s.ok()) {
      recovery_.snapshot_loaded = true;
      recovery_.snapshot_lsn = snapshot_lsn;
      recovery_.snapshot_types = types_.size();
    } else {
      // Detected, never silently loaded: recover degraded from the WAL.
      recovery_.snapshot_corrupt = true;
      types_.clear();
      snapshot_lsn = 0;
    }
  }

  // 2. Longest valid WAL prefix, LSN-gated replay.
  util::Status replay = ReplayWalLocked(snapshot_lsn);

  const bool corrupt = recovery_.snapshot_corrupt || recovery_.wal_corrupt;
  if (!replay.ok()) return replay;
  return corrupt ? util::Status::DataLoss(
                       "experience store recovered degraded (corruption "
                       "detected; valid prefix loaded)")
                 : util::Status::Ok();
}

util::Status ExperienceStore::ReplayWalLocked(uint64_t snapshot_lsn) {
  WalReadResult wal;
  util::Status s = ReadWal(wal_path(), &wal);
  uint64_t valid_bytes = 0;
  if (s.ok() || s.code() == util::Status::Code::kDataLoss) {
    recovery_.wal_corrupt = wal.corruption;
    recovery_.wal_frames_seen = wal.records.size();
    recovery_.wal_torn_bytes = wal.torn_bytes;
    valid_bytes = wal.valid_bytes;
  } else if (s.code() == util::Status::Code::kNotFound) {
    valid_bytes = 0;  // fresh log
  } else {
    return s;
  }

  replaying_ = true;
  uint64_t max_lsn = snapshot_lsn;
  for (const WalRecord& rec : wal.records) {
    max_lsn = std::max(max_lsn, rec.lsn);
    if (rec.lsn <= snapshot_lsn) continue;  // already folded into snapshot
    ++recovery_.wal_frames_replayed;
    // The type is looked up only for a frame that applies, so a frame of an
    // unknown type or with an undecodable payload creates no empty type.
    ByteReader r(rec.payload.data(), rec.payload.size());
    const uint64_t type_hash = r.GetU64();
    switch (rec.type) {
      case kObservation: {
        const double latency = r.GetF64();
        const uint8_t flags = r.GetU8();
        if (r.ok()) {
          ApplyObservation(&types_[type_hash], latency,
                           (flags & kFlagFromSearch) != 0,
                           (flags & kFlagImproved) != 0);
        }
        break;
      }
      case kBestPlan: {
        const double latency = r.GetF64();
        const uint64_t plan_hash = r.GetU64();
        const uint32_t len = r.GetU32();
        if (r.ok() && len <= rec.payload.size()) {
          std::vector<uint8_t> bytes(rec.payload.end() - len,
                                     rec.payload.end());
          ApplyBestPlan(&types_[type_hash], latency, plan_hash,
                        std::move(bytes));
        }
        break;
      }
      case kModeSet: {
        const uint8_t mode = r.GetU8();
        if (r.ok() && mode <= static_cast<uint8_t>(TypeMode::kFrozen)) {
          ApplyModeSet(&types_[type_hash], static_cast<TypeMode>(mode));
        }
        break;
      }
      default:
        break;  // Unknown frame type (an earlier or a future version's): skip.
    }
  }
  replaying_ = false;
  next_lsn_ = max_lsn + 1;
  frames_since_snapshot_ = recovery_.wal_frames_replayed;

  // 3. Truncate the torn/corrupt tail and resume appending after it.
  return wal_.Open(wal_path(), valid_bytes);
}

double ExperienceStore::BaselineLocked(const TypeState& t) const {
  return t.baseline_n > 0 ? t.baseline_sum / t.baseline_n : 0.0;
}

void ExperienceStore::TransitionLocked(TypeState* t, TypeMode to,
                                       bool from_drift) {
  if (t->mode == to) return;
  t->mode = to;
  t->exploit_from_drift = to == TypeMode::kExploit && from_drift;
  t->exploit_run_len = 0;
  t->healthy_run = 0;
  t->exploit_bad_run = 0;
  if (to == TypeMode::kLearn) t->stable_run = 0;
  if (!replaying_) ++stats_.mode_transitions;
}

void ExperienceStore::ApplyObservation(TypeState* t, double latency_ms,
                                       bool from_search, bool improved) {
  ++t->serves;
  if (!replaying_) ++stats_.observations;
  if (!t->ewma_init) {
    t->ewma = latency_ms;
    t->ewma_init = true;
  } else {
    const double a = options_.drift.ewma_alpha;
    t->ewma = a * latency_ms + (1.0 - a) * t->ewma;
  }
  if (t->baseline_n < options_.drift.baseline_window) {
    t->baseline_sum += latency_ms;
    ++t->baseline_n;
  }
  const double baseline = BaselineLocked(*t);
  const DriftOptions& d = options_.drift;

  switch (t->mode) {
    case TypeMode::kLearn: {
      if (from_search) {
        ++t->search_serves;
        if (!replaying_) ++stats_.search_serves;
        if (improved) {
          t->stable_run = 0;
        } else {
          ++t->stable_run;
        }
      }
      const bool baseline_ready = t->baseline_n >= d.baseline_window;
      if (baseline_ready && t->has_best && baseline > 0.0 &&
          t->ewma > d.demote_factor * baseline) {
        // Drift: the type is regressing — pin it to the best-known plan.
        ++t->demotions;
        if (!replaying_) ++stats_.drift_demotions;
        TransitionLocked(t, TypeMode::kExploit, /*from_drift=*/true);
      } else if (d.stable_streak > 0 && from_search && !improved &&
                 t->has_best && t->stable_run >= d.stable_streak) {
        // Stability: search keeps confirming the best plan — stop paying
        // for search.
        if (!replaying_) ++stats_.stability_promotions;
        TransitionLocked(t, TypeMode::kExploit, /*from_drift=*/false);
      }
      break;
    }
    case TypeMode::kExploit: {
      ++t->exploit_run_len;
      if (!replaying_) ++stats_.exploit_serves;
      const bool bad =
          baseline > 0.0 && latency_ms > d.demote_factor * baseline;
      t->exploit_bad_run = bad ? t->exploit_bad_run + 1 : 0;
      if (t->exploit_bad_run >= d.exploit_bad_streak) {
        // The pinned plan itself regressed: the old baseline no longer
        // describes this type. Re-learn against a fresh baseline (resetting
        // it also prevents an instant re-demotion on the next serve).
        t->baseline_sum = 0.0;
        t->baseline_n = 0;
        t->ewma_init = false;
        if (!replaying_) ++stats_.exploit_escapes;
        TransitionLocked(t, TypeMode::kLearn, /*from_drift=*/false);
      } else if (t->exploit_from_drift &&
                 d.probe_interval > 0 &&
                 t->exploit_run_len % d.probe_interval == 0) {
        if (!replaying_) ++stats_.probe_serves;
        const bool healthy =
            baseline > 0.0 && latency_ms <= d.healthy_factor * baseline;
        t->healthy_run = healthy ? t->healthy_run + 1 : 0;
        if (t->healthy_run >= d.healthy_probes) {
          if (!replaying_) ++stats_.repromotions;
          TransitionLocked(t, TypeMode::kLearn, /*from_drift=*/false);
        }
      }
      break;
    }
    case TypeMode::kFrozen:
      break;  // unreachable: frozen serves are not recorded (see RecordServe)
  }
}

void ExperienceStore::ApplyBestPlan(TypeState* t, double latency_ms,
                                    uint64_t plan_hash,
                                    std::vector<uint8_t> plan_bytes) {
  t->has_best = true;
  t->best_latency_ms = latency_ms;
  t->best_plan_hash = plan_hash;
  t->best_plan_bytes = std::move(plan_bytes);
  t->decoded_valid = false;
  t->decoded_best = plan::PartialPlan();
  t->stable_run = 0;
  if (!replaying_) ++stats_.best_updates;
}

void ExperienceStore::ApplyModeSet(TypeState* t, TypeMode mode) {
  TransitionLocked(t, mode, /*from_drift=*/false);
}

void ExperienceStore::AppendWalLocked(uint32_t type,
                                      const ByteWriter& payload) {
  if (!durable() || io_dead_ || wal_degraded_) return;
  const uint64_t lsn = next_lsn_++;
  util::Status s =
      wal_.AppendRecord(type, lsn, payload.bytes().data(), payload.size());
  if (wal_.crashed()) {
    io_dead_ = true;
    return;
  }
  if (!s.ok()) {
    ++stats_.wal_append_failures;
    // One recovery attempt: truncate back to the last good frame boundary
    // and retry the append. A second failure degrades to in-memory.
    if (wal_.Reset().ok() &&
        wal_.AppendRecord(type, lsn, payload.bytes().data(), payload.size())
            .ok()) {
      if (wal_.crashed()) {
        io_dead_ = true;
        return;
      }
    } else {
      wal_degraded_ = wal_.failed();
      if (wal_.crashed()) io_dead_ = true;
      return;
    }
  }
  ++stats_.wal_records;
  ++frames_since_snapshot_;
}

Decision ExperienceStore::Decide(const query::Query& query) {
  std::lock_guard<std::mutex> lock(mu_);
  Decision d;
  auto it = types_.find(query.type_hash);
  if (it == types_.end()) return d;
  TypeState& t = it->second;
  d.type_known = true;
  d.mode = t.mode;
  if (t.mode == TypeMode::kLearn || !t.has_best) return d;

  if (!t.decoded_valid) {
    ByteReader r(t.best_plan_bytes.data(), t.best_plan_bytes.size());
    util::Status s = DecodePlan(&r, query, &t.decoded_best);
    if (!s.ok()) {
      // Checksummed bytes that still fail structural decode (e.g. a type-
      // hash collision across schemas): never serve them.
      ++stats_.plan_decode_failures;
      return d;
    }
    t.decoded_valid = true;
  }
  d.use_pinned = true;
  d.pinned = t.decoded_best;   // cheap: shared_ptr roots
  d.pinned.query = &query;
  d.pinned_latency_ms = t.best_latency_ms;
  d.is_probe = t.mode == TypeMode::kExploit && t.exploit_from_drift &&
               options_.drift.probe_interval > 0 &&
               (t.exploit_run_len + 1) % options_.drift.probe_interval == 0;
  return d;
}

bool ExperienceStore::BestPlanFor(const query::Query& query,
                                  plan::PartialPlan* out, double* latency_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = types_.find(query.type_hash);
  if (it == types_.end() || !it->second.has_best) return false;
  TypeState& t = it->second;
  if (!t.decoded_valid) {
    ByteReader r(t.best_plan_bytes.data(), t.best_plan_bytes.size());
    util::Status s = DecodePlan(&r, query, &t.decoded_best);
    if (!s.ok()) {
      ++stats_.plan_decode_failures;
      return false;
    }
    t.decoded_valid = true;
  }
  *out = t.decoded_best;  // cheap: shared_ptr roots
  out->query = &query;
  if (latency_ms != nullptr) *latency_ms = t.best_latency_ms;
  return true;
}

void ExperienceStore::RecordServe(const query::Query& query,
                                  const plan::PartialPlan& plan,
                                  double latency_ms, bool from_search) {
  std::lock_guard<std::mutex> lock(mu_);
  TypeState& t = types_[query.type_hash];
  if (t.mode == TypeMode::kFrozen) {
    ++stats_.frozen_serves;  // pinned plan, no durable updates
    return;
  }
  const bool improved =
      t.mode == TypeMode::kLearn && from_search && plan.IsComplete() &&
      (!t.has_best || latency_ms < t.best_latency_ms);

  // WAL the raw inputs, then apply — replay re-runs the same machine in the
  // same order (see "Replay determinism" in the header).
  {
    ByteWriter payload;
    payload.PutU64(query.type_hash);
    payload.PutF64(latency_ms);
    payload.PutU8(static_cast<uint8_t>((from_search ? kFlagFromSearch : 0) |
                                       (improved ? kFlagImproved : 0)));
    AppendWalLocked(kObservation, payload);
  }
  ApplyObservation(&t, latency_ms, from_search, improved);

  if (improved) {
    ByteWriter plan_bytes;
    EncodePlan(plan, &plan_bytes);
    const uint64_t plan_hash = plan.Hash();
    ByteWriter payload;
    payload.PutU64(query.type_hash);
    payload.PutF64(latency_ms);
    payload.PutU64(plan_hash);
    payload.PutU32(static_cast<uint32_t>(plan_bytes.size()));
    payload.PutBytes(plan_bytes.bytes().data(), plan_bytes.size());
    AppendWalLocked(kBestPlan, payload);
    std::vector<uint8_t> bytes = plan_bytes.bytes();
    ApplyBestPlan(&t, latency_ms, plan_hash, std::move(bytes));
    // We hold the live plan: prime the decode cache for Decide().
    t.decoded_best = plan;
    t.decoded_valid = true;
  }
}

util::Status ExperienceStore::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!durable() || io_dead_) return util::Status::Ok();
  util::Status s = wal_.Sync();
  if (wal_.crashed()) {
    io_dead_ = true;
    return util::Status::Ok();
  }
  if (options_.snapshot_every > 0 &&
      frames_since_snapshot_ >=
          static_cast<uint64_t>(options_.snapshot_every)) {
    util::Status snap = SnapshotLocked();
    if (!snap.ok()) return snap;
  }
  return s;
}

util::Status ExperienceStore::Snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!durable() || io_dead_) return util::Status::Ok();
  return SnapshotLocked();
}

void ExperienceStore::SerializeLocked(ByteWriter* out) const {
  out->PutU32(kSnapshotMagic);
  out->PutU32(kSnapshotVersion);
  out->PutU64(next_lsn_ - 1);  // last LSN folded into this snapshot
  // Deterministic order so identical states write identical bytes.
  std::vector<uint64_t> hashes;
  hashes.reserve(types_.size());
  for (const auto& [hash, t] : types_) hashes.push_back(hash);
  std::sort(hashes.begin(), hashes.end());
  out->PutU64(hashes.size());
  for (uint64_t hash : hashes) {
    const TypeState& t = types_.at(hash);
    out->PutU64(hash);
    out->PutU8(static_cast<uint8_t>(t.mode));
    out->PutU8(t.exploit_from_drift ? 1 : 0);
    out->PutF64(t.ewma);
    out->PutU8(t.ewma_init ? 1 : 0);
    out->PutF64(t.baseline_sum);
    out->PutI32(t.baseline_n);
    out->PutU64(t.serves);
    out->PutU64(t.search_serves);
    out->PutU64(t.exploit_run_len);
    out->PutI32(t.stable_run);
    out->PutI32(t.healthy_run);
    out->PutI32(t.exploit_bad_run);
    out->PutU64(t.demotions);
    out->PutU8(t.has_best ? 1 : 0);
    out->PutF64(t.best_latency_ms);
    out->PutU64(t.best_plan_hash);
    out->PutU32(static_cast<uint32_t>(t.best_plan_bytes.size()));
    out->PutBytes(t.best_plan_bytes.data(), t.best_plan_bytes.size());
  }
  out->PutU64(Fnv1a(out->bytes().data(), out->size()));
}

util::Status ExperienceStore::DeserializeSnapshot(
    const std::vector<uint8_t>& bytes, uint64_t* last_lsn) {
  if (bytes.size() < 8 + 8) {
    return util::Status::DataLoss("snapshot too short");
  }
  const uint64_t expect = Fnv1a(bytes.data(), bytes.size() - 8);
  ByteReader tail(bytes.data() + bytes.size() - 8, 8);
  if (tail.GetU64() != expect) {
    return util::Status::DataLoss("snapshot checksum mismatch");
  }
  ByteReader r(bytes.data(), bytes.size() - 8);
  if (r.GetU32() != kSnapshotMagic) {
    return util::Status::DataLoss("bad snapshot magic");
  }
  if (r.GetU32() != kSnapshotVersion) {
    return util::Status::DataLoss("unsupported snapshot version");
  }
  *last_lsn = r.GetU64();
  const uint64_t num_types = r.GetU64();
  if (!r.ok() || num_types > (1u << 24)) {
    return util::Status::DataLoss("bad snapshot type count");
  }
  types_.clear();
  for (uint64_t i = 0; i < num_types; ++i) {
    const uint64_t hash = r.GetU64();
    TypeState t;
    const uint8_t mode = r.GetU8();
    if (mode > static_cast<uint8_t>(TypeMode::kFrozen)) {
      return util::Status::DataLoss("bad mode in snapshot");
    }
    t.mode = static_cast<TypeMode>(mode);
    t.exploit_from_drift = r.GetU8() != 0;
    t.ewma = r.GetF64();
    t.ewma_init = r.GetU8() != 0;
    t.baseline_sum = r.GetF64();
    t.baseline_n = r.GetI32();
    t.serves = r.GetU64();
    t.search_serves = r.GetU64();
    t.exploit_run_len = r.GetU64();
    t.stable_run = r.GetI32();
    t.healthy_run = r.GetI32();
    t.exploit_bad_run = r.GetI32();
    t.demotions = r.GetU64();
    t.has_best = r.GetU8() != 0;
    t.best_latency_ms = r.GetF64();
    t.best_plan_hash = r.GetU64();
    const uint32_t plan_len = r.GetU32();
    if (!r.ok() || plan_len > kMaxPayloadLen || plan_len > r.remaining()) {
      return util::Status::DataLoss("bad plan bytes in snapshot");
    }
    t.best_plan_bytes.resize(plan_len);
    for (uint32_t b = 0; b < plan_len; ++b) t.best_plan_bytes[b] = r.GetU8();
    if (!r.ok()) return util::Status::DataLoss("truncated snapshot record");
    types_[hash] = std::move(t);
  }
  return util::Status::Ok();
}

util::Status ExperienceStore::SnapshotLocked() {
  ByteWriter snap;
  SerializeLocked(&snap);
  bool crashed = io_dead_;
  util::Status s =
      AtomicWriteFile(snapshot_path(), snap.bytes().data(), snap.size(),
                      injector_, Fnv1a(options_.dir.data(), options_.dir.size()),
                      &crashed);
  if (crashed) {
    // The emulated process died mid-publish: the rename never happened and
    // nothing after this point may touch disk (in particular, the WAL must
    // NOT be reset — its frames are still the only durable copy).
    io_dead_ = true;
    return util::Status::Ok();
  }
  if (!s.ok()) {
    ++stats_.snapshot_failures;
    return s;  // WAL untouched; every frame still replayable
  }
  ++stats_.snapshots;
  frames_since_snapshot_ = 0;
  // Frames folded into the snapshot are now redundant (their LSNs are
  // <= last_lsn), so start a fresh log. A crash before/after this point is
  // covered by the LSN gate either way.
  return wal_.Open(wal_path(), 0);
}

util::Status ExperienceStore::Freeze(uint64_t type_hash) {
  return SetMode(type_hash, TypeMode::kFrozen);
}

util::Status ExperienceStore::SetMode(uint64_t type_hash, TypeMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = types_.find(type_hash);
  if (it == types_.end()) {
    return util::Status::NotFound("unknown query type");
  }
  if (mode != TypeMode::kLearn && !it->second.has_best) {
    return util::Status::FailedPrecondition(
        "mode needs a pinned plan but no best plan is known");
  }
  ByteWriter payload;
  payload.PutU64(type_hash);
  payload.PutU8(static_cast<uint8_t>(mode));
  AppendWalLocked(kModeSet, payload);
  ApplyModeSet(&it->second, mode);
  return util::Status::Ok();
}

StoreStats ExperienceStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ExperienceStore::NumTypes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return types_.size();
}

TypeView ExperienceStore::ViewLocked(uint64_t hash,
                                     const TypeState& t) const {
  TypeView v;
  v.type_hash = hash;
  v.mode = t.mode;
  v.exploit_from_drift = t.exploit_from_drift;
  v.serves = t.serves;
  v.search_serves = t.search_serves;
  v.exploit_run_len = t.exploit_run_len;
  v.ewma = t.ewma;
  v.baseline_mean = BaselineLocked(t);
  v.baseline_n = t.baseline_n;
  v.stable_run = t.stable_run;
  v.healthy_run = t.healthy_run;
  v.exploit_bad_run = t.exploit_bad_run;
  v.demotions = t.demotions;
  v.has_best = t.has_best;
  v.best_latency_ms = t.best_latency_ms;
  v.best_plan_hash = t.best_plan_hash;
  return v;
}

std::vector<TypeView> ExperienceStore::View() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TypeView> out;
  out.reserve(types_.size());
  for (const auto& [hash, t] : types_) out.push_back(ViewLocked(hash, t));
  std::sort(out.begin(), out.end(),
            [](const TypeView& a, const TypeView& b) {
              return a.type_hash < b.type_hash;
            });
  return out;
}

bool ExperienceStore::ViewOf(uint64_t type_hash, TypeView* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = types_.find(type_hash);
  if (it == types_.end()) return false;
  *out = ViewLocked(type_hash, it->second);
  return true;
}

}  // namespace neo::store
