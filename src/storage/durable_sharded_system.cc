// Copyright 2026 The LTAM Authors.

#include "storage/durable_sharded_system.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <unordered_set>
#include <utility>

#include "storage/cold_codec.h"
#include "storage/event_log.h"
#include "telemetry/metrics.h"
#include "util/logging.h"

namespace ltam {

DurableShardedSystem::DurableShardedSystem(std::string dir,
                                           DurableShardedOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (MetricsRegistry* metrics = options_.durability.metrics) {
    dirty_segments_counter_ = metrics->GetCounter("checkpoint.dirty_segments");
    compaction_runs_counter_ = metrics->GetCounter("compaction.runs");
    retention_dropped_counter_ =
        metrics->GetCounter("retention.dropped_segments");
    cold_segments_gauge_ = metrics->GetGauge("storage.cold_segments");
    cold_bytes_gauge_ = metrics->GetGauge("storage.cold_bytes");
    resident_bytes_gauge_ = metrics->GetGauge("storage.resident_bytes");
  }
}

DurableShardedSystem::~DurableShardedSystem() {
  // Join the workers before the log they append through goes away; the
  // pipeline's destructor then writes and best-effort-syncs what is
  // left.
  engine_.reset();
  log_.reset();
}

std::string DurableShardedSystem::FilePath(const std::string& name) const {
  return dir_ + "/" + name;
}

std::string DurableShardedSystem::BaseSnapName(uint64_t epoch) const {
  return "base-" + std::to_string(epoch) + ".snap";
}

std::string DurableShardedSystem::ShardSnapName(uint32_t shard,
                                                uint64_t epoch) const {
  return "shard-" + std::to_string(shard) + "-" + std::to_string(epoch) +
         ".snap";
}

std::string DurableShardedSystem::WalName(uint64_t epoch) const {
  return "events-" + std::to_string(epoch) + ".wal";
}

std::string DurableShardedSystem::ColdSegName(uint32_t shard,
                                              uint64_t index) const {
  return "cold-" + std::to_string(shard) + "-" + std::to_string(index) +
         ".seg";
}

namespace {

/// Recovers the numeric suffix of "cold-<shard>-<n>.seg". Manifest cold
/// names are always generated by ColdSegName, but recovery treats an
/// unparseable one as "no index" rather than failing — the counter then
/// falls back to the list length.
bool ParseColdIndex(const std::string& name, uint32_t shard,
                    uint64_t* index) {
  const std::string prefix = "cold-" + std::to_string(shard) + "-";
  const std::string suffix = ".seg";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    if (v > (std::numeric_limits<uint64_t>::max() - (c - '0')) / 10) {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = v;
  return true;
}

}  // namespace

void DurableShardedSystem::InitEngine(uint32_t num_shards) {
  ShardedEngineOptions opt;
  opt.num_shards = num_shards;
  opt.engine = options_.engine;
  engine_ = std::make_unique<ShardedDecisionEngine>(
      &base_.graph, &base_.auth_db, &base_.profiles, opt);
  cold_files_.assign(num_shards, {});
  next_cold_index_.assign(num_shards, 0);
  snapshot_stale_.assign(num_shards, false);
  // One slot per shard worker, and one for the control thread.
  log_ = std::make_unique<LogPipeline>(num_shards + 1, options_.durability);
}

Status DurableShardedSystem::ReplayLogs(const ShardManifest& manifest) {
  // Replays `name`'s records in order; `shard` confines a version-1
  // shard log to its own shard (its ticks tick that shard alone).
  auto replay = [&](const std::string& name,
                    std::optional<uint32_t> shard) -> Status {
    const std::string path = FilePath(name);
    if (!FileExists(path)) {
      // WriteEpoch creates the log (and fsyncs the directory through the
      // manifest rename) before the manifest names it, so a committed
      // cut whose log vanished is data loss, not a crash window — refuse
      // to silently drop the tail.
      return Status::IOError("WAL '" + path +
                             "' named by the manifest is missing");
    }
    // Repair a torn final record now, before replay and before any new
    // append lands on the same line as the torn bytes.
    LTAM_RETURN_IF_ERROR(TruncateTornWalTail(path).status());
    return ReplayWal(path, [&](const LoggedEvent& event) -> Status {
      if (event.is_tick) {
        if (shard.has_value()) {
          ApplyLoggedEvent(&engine_->shard_engine(*shard), event);
        } else {
          engine_->Tick(event.tick_time);
        }
      } else {
        const uint32_t owner = engine_->ShardOf(event.event.subject);
        if (shard.has_value() && owner != *shard) {
          return Status::ParseError("log for shard " + std::to_string(*shard) +
                                    " contains foreign subject " +
                                    std::to_string(event.event.subject));
        }
        ApplyLoggedEvent(&engine_->shard_engine(owner), event);
        // The replayed tail lives only in the log, which the next
        // checkpoint deletes: that checkpoint must rewrite the snapshot
        // even though no slot has logged anything yet.
        snapshot_stale_[owner] = true;
      }
      ++recovery_.replayed_records;
      return Status::OK();
    });
  };
  if (manifest.v1_shard_wals.empty()) {
    LTAM_RETURN_IF_ERROR(replay(manifest.wal, std::nullopt));
  } else {
    for (uint32_t k = 0; k < manifest.num_shards; ++k) {
      LTAM_RETURN_IF_ERROR(replay(manifest.v1_shard_wals[k], k)
                               .WithContext("replaying shard " +
                                            std::to_string(k)));
    }
  }
  // The replayed records keep their positions: the live log's first
  // append follows them.
  floor_ += recovery_.replayed_records;
  return Status::OK();
}

Status DurableShardedSystem::WriteEpoch(uint64_t epoch) {
  const uint32_t n = engine_->num_shards();
  ShardManifest m;
  m.epoch = epoch;
  m.num_shards = n;
  m.base_snapshot = BaseSnapName(epoch);
  LTAM_RETURN_IF_ERROR(SaveSnapshot(base_, FilePath(m.base_snapshot)));
  // Epoch 0 — no previous cut — rewrites everything.
  const bool incremental = manifest_.shards.size() == n;
  uint64_t dirty = 0;
  for (uint32_t k = 0; k < n; ++k) {
    ShardManifest::ShardFiles files;
    const MovementDatabase& db = engine_->shard_movements(k);
    const bool shard_dirty =
        !incremental || log_->slot_records(k) > 0 || snapshot_stale_[k];
    if (shard_dirty) {
      files.snapshot = ShardSnapName(k, epoch);
      LTAM_RETURN_IF_ERROR(SaveMovements(db, FilePath(files.snapshot)));
      ++dirty;
    } else {
      // Clean shard: no log record landed or replayed since the previous
      // cut and tier maintenance left the hot history alone, so the
      // previous epoch's snapshot file is byte-exact for this shard.
      // Re-reference it instead of rewriting — the incremental
      // discipline that keeps checkpoint latency proportional to the
      // events since the last checkpoint, not to total history.
      files.snapshot = manifest_.shards[k].snapshot;
    }
    for (const ColdFile& f : cold_files_[k]) files.cold.push_back(f.name);
    files.dropped_events = db.dropped_events();
    m.shards.push_back(std::move(files));
  }
  last_checkpoint_dirty_segments_ = dirty;
  checkpoint_dirty_segments_ += dirty;
  if (dirty_segments_counter_ != nullptr && dirty > 0) {
    dirty_segments_counter_->Increment(dirty);
  }
  // Every record the retiring log accepted is in the snapshots now.
  m.wal = WalName(epoch);
  m.floor = floor_ + log_->appended_seq();
  // A fresh, empty log for the new epoch (truncating any orphan a
  // crashed earlier attempt at this epoch left behind).
  LTAM_ASSIGN_OR_RETURN(FileWriter wal, FileWriter::Create(FilePath(m.wal)));
  // The commit point: everything above becomes the recovered state the
  // instant this rename lands.
  LTAM_RETURN_IF_ERROR(SaveManifest(m, FilePath(ManifestFileName())));
  snapshot_stale_.assign(n, false);
  // The cut and the file swap move together under manifest_mu_, so a
  // shipper thread snapshotting its read position never pairs the new
  // cut's floor with the old file, or the other way round.
  std::lock_guard<std::mutex> lock(manifest_mu_);
  manifest_ = std::move(m);
  log_->SwapFile(std::move(wal));
  return Status::OK();
}

void DurableShardedSystem::RemoveEpochFiles(const ShardManifest& old_manifest) {
  // Incremental checkpoints re-reference clean shards' snapshot files
  // (and cold segments live across many epochs), so only files the NEW
  // committed cut no longer names may go.
  std::unordered_set<std::string> keep{manifest_.base_snapshot,
                                       manifest_.wal};
  for (const ShardManifest::ShardFiles& files : manifest_.shards) {
    keep.insert(files.snapshot);
    keep.insert(files.cold.begin(), files.cold.end());
  }
  auto remove_unless_kept = [this, &keep](const std::string& name) {
    if (keep.count(name) == 0) std::remove(FilePath(name).c_str());
  };
  remove_unless_kept(old_manifest.base_snapshot);
  if (!old_manifest.wal.empty()) remove_unless_kept(old_manifest.wal);
  for (const std::string& wal : old_manifest.v1_shard_wals) {
    remove_unless_kept(wal);
  }
  for (const ShardManifest::ShardFiles& files : old_manifest.shards) {
    remove_unless_kept(files.snapshot);
    for (const std::string& seg : files.cold) remove_unless_kept(seg);
  }
}

void DurableShardedSystem::MaintainColdTiers() {
  const RetentionOptions& r = options_.retention;
  const uint32_t n = engine_->num_shards();
  if (r.max_hot_events == 0) return;
  // Retention is judged against the stream's own clock — the newest
  // time any shard has recorded (hot event times and sealed closing
  // times) — never wall time, so replaying the same events yields the
  // same drops.
  Chronon now = kChrononMin;
  bool any_time = false;
  for (uint32_t k = 0; k < n; ++k) {
    const MovementDatabase& db = engine_->shard_movements(k);
    for (const MovementEvent& ev : db.history()) {
      now = std::max(now, ev.time);
      any_time = true;
    }
    for (const std::shared_ptr<const ColdSegment>& seg : db.cold_segments()) {
      if (!seg->empty()) {
        now = std::max(now, seg->max_exit);
        any_time = true;
      }
    }
  }
  auto segments_of = [](const std::vector<ColdFile>& files) {
    std::vector<std::shared_ptr<const ColdSegment>> segs;
    segs.reserve(files.size());
    for (const ColdFile& f : files) segs.push_back(f.segment);
    return segs;
  };
  for (uint32_t k = 0; k < n; ++k) {
    MovementDatabase& db = engine_->mutable_shard_movements(k);
    // Seal: the hot tier outgrew its bound; completed stays move to a
    // new cold segment and the hot snapshot must be rewritten.
    if (db.history().size() > r.max_hot_events) {
      if (std::shared_ptr<const ColdSegment> seg = db.SealCompletedStays()) {
        snapshot_stale_[k] = true;
        cold_files_[k].push_back(
            {ColdSegName(k, next_cold_index_[k]++), std::move(seg), false});
      }
    }
    // Retention: drop sealed segments whose every stay ended before the
    // horizon. Segment max_exit is not monotonic across the sequence (a
    // long-open stay seals late with an old exit), so each segment is
    // judged on its own bounds; per-subject order of the survivors is
    // preserved.
    if (r.horizon > 0 && any_time) {
      const Chronon cutoff = ChrononSub(now, r.horizon);
      uint64_t dropped = db.dropped_events();
      std::vector<ColdFile> survivors;
      survivors.reserve(cold_files_[k].size());
      bool changed = false;
      for (ColdFile& f : cold_files_[k]) {
        if (!f.segment->empty() && f.segment->max_exit < cutoff) {
          dropped += f.segment->sealed_events;
          ++retention_dropped_segments_;
          if (retention_dropped_counter_ != nullptr) {
            retention_dropped_counter_->Increment();
          }
          changed = true;
        } else {
          survivors.push_back(std::move(f));
        }
      }
      // The survivors were moved out of cold_files_[k] above, so the
      // write-back is unconditional — keeping the old vector when
      // nothing dropped would keep moved-from (null-segment) entries.
      cold_files_[k] = std::move(survivors);
      if (changed) {
        db.ReplaceColdSegments(segments_of(cold_files_[k]), dropped);
      }
    }
    // Compaction: merge runs of small segments so the tier stays at
    // O(fanin) segments per horizon-wide window instead of one per seal.
    // Only segments whose stays end in the same window merge: a merge
    // across windows would pin old stays to a segment that keeps
    // absorbing fresh seals, and under frequent checkpoints it would
    // never age past the horizon, so nothing would ever drop.
    const size_t fanin = std::max<uint32_t>(2, r.compaction_fanin);
    auto window = [&r](const ColdFile& f) -> Chronon {
      if (r.horizon <= 0) return 0;
      const Chronon t = f.segment->max_exit;
      return t / r.horizon - (t % r.horizon < 0 ? 1 : 0);  // Floor.
    };
    std::vector<ColdFile>& files = cold_files_[k];
    for (size_t start = 0; start + fanin <= files.size();) {
      const Chronon w = window(files[start]);
      size_t run = 1;
      while (run < fanin && window(files[start + run]) == w) ++run;
      if (run < fanin) {
        start += run;  // No full run starts inside this one either.
        continue;
      }
      std::vector<std::shared_ptr<const ColdSegment>> inputs;
      inputs.reserve(fanin);
      for (size_t i = start; i < start + fanin; ++i) {
        inputs.push_back(files[i].segment);
      }
      std::shared_ptr<const ColdSegment> merged = MergeColdSegments(inputs);
      const auto first = files.begin() + static_cast<long>(start);
      files.erase(first, first + static_cast<long>(fanin));
      // The merged segment stays at `start` and may merge again with the
      // next segments of its window.
      files.insert(files.begin() + static_cast<long>(start),
                   {ColdSegName(k, next_cold_index_[k]++), std::move(merged),
                    false});
      db.ReplaceColdSegments(segments_of(cold_files_[k]),
                             db.dropped_events());
      ++compaction_runs_;
      if (compaction_runs_counter_ != nullptr) {
        compaction_runs_counter_->Increment();
      }
    }
  }
}

Status DurableShardedSystem::PersistColdFiles() {
  bool created = false;
  for (std::vector<ColdFile>& shard_files : cold_files_) {
    for (ColdFile& f : shard_files) {
      if (f.persisted) continue;
      LTAM_RETURN_IF_ERROR(SaveColdSegment(*f.segment, FilePath(f.name)));
      f.persisted = true;
      created = true;
    }
  }
  // The names must survive a crash before the manifest rename that
  // commits them (recovery refuses a committed cut with missing files).
  if (created) LTAM_RETURN_IF_ERROR(SyncDir(dir_));
  return Status::OK();
}

void DurableShardedSystem::UpdateColdGauges() {
  if (cold_segments_gauge_ != nullptr) {
    cold_segments_gauge_->Set(static_cast<int64_t>(cold_segment_count()));
  }
  if (cold_bytes_gauge_ != nullptr) {
    cold_bytes_gauge_->Set(static_cast<int64_t>(cold_bytes()));
  }
  // Refreshed at every checkpoint, so a soak run's periodic scrapes see
  // whether memory plateaus once retention starts dropping history.
  if (resident_bytes_gauge_ != nullptr) {
    const uint64_t resident = ReadResidentBytes();
    if (resident > 0) {
      resident_bytes_gauge_->Set(static_cast<int64_t>(resident));
    }
  }
}

void DurableShardedSystem::SweepOrphanColdFiles() {
  std::unordered_set<std::string> referenced;
  for (const ShardManifest::ShardFiles& files : manifest_.shards) {
    referenced.insert(files.cold.begin(), files.cold.end());
  }
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) return;
  std::vector<std::string> orphans;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.compare(0, 5, "cold-") != 0) continue;
    if (name.size() < 4 || name.compare(name.size() - 4, 4, ".seg") != 0) {
      continue;
    }
    if (referenced.count(name) == 0) orphans.push_back(name);
  }
  ::closedir(dir);
  // A crash between segment write and manifest publish leaves the file
  // behind; its name will be reused (the index counter restarts from
  // the committed manifest), but sweeping now keeps the directory an
  // exact mirror of the committed cut.
  for (const std::string& name : orphans) {
    std::remove(FilePath(name).c_str());
  }
}

uint64_t DurableShardedSystem::cold_segment_count() const {
  uint64_t total = 0;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    total += engine_->shard_movements(k).cold_segments().size();
  }
  return total;
}

uint64_t DurableShardedSystem::cold_bytes() const {
  uint64_t total = 0;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    total += engine_->shard_movements(k).ColdBytes();
  }
  return total;
}

uint64_t DurableShardedSystem::dropped_events() const {
  uint64_t total = 0;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    total += engine_->shard_movements(k).dropped_events();
  }
  return total;
}

void DurableShardedSystem::InstallHooks() {
  ShardHooks hooks;
  hooks.before_apply = [this](uint32_t shard, const AccessEvent& event) {
    log_->Append(shard, LoggedEvent::Access(event));
  };
  hooks.after_slices = [this] { batch_error_ = log_->Publish(); };
  engine_->SetShardHooks(std::move(hooks));
}

Result<std::unique_ptr<DurableShardedSystem>> DurableShardedSystem::Open(
    const std::string& dir, SystemState initial,
    DurableShardedOptions options) {
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError("'" + dir + "' is not a directory");
  }
  options.num_shards = std::max<uint32_t>(1, options.num_shards);
  std::unique_ptr<DurableShardedSystem> sys(
      new DurableShardedSystem(dir, options));
  const std::string manifest_path = sys->FilePath(ManifestFileName());
  bool upgrade = false;
  if (FileExists(manifest_path)) {
    LTAM_ASSIGN_OR_RETURN(ShardManifest manifest,
                          LoadManifest(manifest_path));
    if (manifest.num_shards != options.num_shards) {
      // The on-disk partition always wins — the logged subjects were
      // routed under it — but callers asked for something else, so say
      // so explicitly instead of letting them guess from behavior.
      LTAM_LOG_WARNING << "durable directory '" << dir << "' pins "
                       << manifest.num_shards << " shards; requested "
                       << options.num_shards
                       << " ignored (partition is fixed at creation)";
    }
    LTAM_ASSIGN_OR_RETURN(SystemState recovered,
                          LoadSnapshot(sys->FilePath(manifest.base_snapshot)));
    if (!recovered.movements.history().empty()) {
      return Status::ParseError(
          "sharded base snapshot must not carry movement records "
          "(movements live in the per-shard segments)");
    }
    sys->base_ = std::move(recovered);
    sys->recovery_.recovered = true;
    sys->InitEngine(manifest.num_shards);
    for (uint32_t k = 0; k < manifest.num_shards; ++k) {
      LTAM_ASSIGN_OR_RETURN(
          MovementDatabase segment,
          LoadMovements(sys->FilePath(manifest.shards[k].snapshot)));
      for (const MovementEvent& ev : segment.history()) {
        if (sys->engine_->ShardOf(ev.subject) != k) {
          return Status::ParseError(
              "segment for shard " + std::to_string(k) +
              " contains foreign subject " + std::to_string(ev.subject));
        }
      }
      sys->engine_->mutable_shard_movements(k) = std::move(segment);
      // The cold tier attaches BEFORE the log replays: replay runs the
      // same monotonicity checks the live path ran, and those depend on
      // the sealed floors the tier carries.
      const ShardManifest::ShardFiles& files = manifest.shards[k];
      if (!files.cold.empty() || files.dropped_events > 0) {
        std::vector<std::shared_ptr<const ColdSegment>> segs;
        segs.reserve(files.cold.size());
        for (const std::string& name : files.cold) {
          LTAM_ASSIGN_OR_RETURN(std::shared_ptr<const ColdSegment> seg,
                                LoadColdSegment(sys->FilePath(name)));
          for (size_t i = 0; i < seg->rows();) {
            const SubjectId s = seg->subjects[i];
            if (sys->engine_->ShardOf(s) != k) {
              return Status::ParseError(
                  "cold segment '" + name + "' for shard " +
                  std::to_string(k) + " contains foreign subject " +
                  std::to_string(s));
            }
            // Rows are subject-sorted; skip to the next distinct one.
            while (i < seg->rows() && seg->subjects[i] == s) ++i;
          }
          uint64_t index = 0;
          if (ParseColdIndex(name, k, &index)) {
            sys->next_cold_index_[k] =
                std::max(sys->next_cold_index_[k], index + 1);
          }
          sys->cold_files_[k].push_back({name, seg, /*persisted=*/true});
          segs.push_back(std::move(seg));
        }
        sys->next_cold_index_[k] = std::max(
            sys->next_cold_index_[k],
            static_cast<uint64_t>(sys->cold_files_[k].size()));
        sys->engine_->mutable_shard_movements(k).AttachColdTier(
            std::move(segs), files.dropped_events);
      }
    }
    // The shard views are restored: resume their open stays, then replay
    // on top of the committed floor.
    LTAM_RETURN_IF_ERROR(sys->engine_->Seed(MovementDatabase()));
    sys->floor_ = manifest.floor;
    LTAM_RETURN_IF_ERROR(sys->ReplayLogs(manifest));
    sys->epoch_ = manifest.epoch;
    // A version-1 cut always gets the recovery cut below, which writes
    // the one-WAL layout; its per-shard WALs are never appended to.
    upgrade = !manifest.v1_shard_wals.empty();
    sys->manifest_ = std::move(manifest);
    if (!upgrade && sys->recovery_.replayed_records == 0) {
      // A clean shutdown: appends resume on the committed WAL.
      LTAM_ASSIGN_OR_RETURN(FileWriter wal,
                            FileWriter::Open(sys->FilePath(sys->manifest_.wal)));
      sys->log_->SwapFile(std::move(wal));
    }
  } else {
    sys->base_ = std::move(initial);
    sys->InitEngine(options.num_shards);
    LTAM_RETURN_IF_ERROR(sys->engine_->Seed(sys->base_.movements));
    // Movement state lives in the shard views from here on.
    sys->base_.movements = MovementDatabase();
    // Checkpoint the seed immediately: recovery never needs `initial`.
    LTAM_RETURN_IF_ERROR(sys->WriteEpoch(0));
    sys->epoch_ = 0;
  }
  sys->SweepOrphanColdFiles();
  if (sys->recovery_.replayed_records > 0 || upgrade) {
    // The recovery cut. The replayed tail would otherwise stay in a log
    // whose lines precede every record this instance appends, so a
    // replication position would map onto the wrong line. The cut folds
    // the tail into snapshots, commits the floor (the committed floor
    // plus the records replay applied), and starts the log on an empty
    // file. A clean restart replays nothing and commits nothing; a
    // version-1 directory is always committed in the one-WAL layout.
    LTAM_RETURN_IF_ERROR(
        sys->Checkpoint().WithContext("committing the recovery cut"));
  }
  sys->UpdateColdGauges();
  sys->InstallHooks();
  return sys;
}

Status DurableShardedSystem::TakeBatchError() {
  return std::exchange(batch_error_, Status::OK());
}

Status DurableShardedSystem::Tick(Chronon t) {
  // One record, applied to every shard; it changes no snapshot, so it
  // dirties none. A tick is a durability barrier: it returns once the
  // tick (and every record before it) is fsynced. A failed log leaves
  // the tick appended and applied (consistent); only its durability is
  // in doubt — report it.
  log_->Append(num_shards(), LoggedEvent::Tick(t));
  engine_->Tick(t);
  return log_->Flush();
}

Status DurableShardedSystem::WaitDurable() { return log_->Flush(); }

DurabilityWatermark DurableShardedSystem::Watermark() const {
  // Durable first: it never passes the appended count read after it.
  const uint64_t durable = log_->durable_seq();
  return DurabilityWatermark{floor_ + log_->appended_seq(), floor_ + durable};
}

uint64_t DurableShardedSystem::wal_append_failures() const {
  return log_->append_failures();
}

uint64_t DurableShardedSystem::wal_sync_failures() const {
  return log_->sync_failures();
}

Status DurableShardedSystem::Checkpoint() {
  // Quiesce the write path. A sticky-failed log cannot flush,
  // but the checkpoint REPAIRS it: the snapshot persists the live state
  // (which includes every event whose log bytes were lost), and the new
  // epoch's log starts healthy on a fresh file.
  Status flushed = WaitDurable();
  if (!flushed.ok()) {
    LTAM_LOG_WARNING << "checkpoint proceeding over a failed log flush "
                        "(the snapshot supersedes the lost tail): "
                     << flushed.ToString();
  }
  // Tier maintenance first (seal / drop / compact, in memory), then the
  // new cold files reach disk before the manifest rename references
  // them. A crash anywhere in between recovers the previous committed
  // cut; sealing is query-transparent, so the retried checkpoint
  // re-derives an equivalent tier.
  MaintainColdTiers();
  LTAM_RETURN_IF_ERROR(PersistColdFiles());
  const ShardManifest old_manifest = manifest_;
  LTAM_RETURN_IF_ERROR(WriteEpoch(epoch_ + 1));
  epoch_ += 1;
  RemoveEpochFiles(old_manifest);
  UpdateColdGauges();
  return Status::OK();
}

size_t DurableShardedSystem::wal_events() const {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  return static_cast<size_t>(floor_ + log_->appended_seq() - manifest_.floor);
}

Result<DurableShardedSystem::ReplicationSlice>
DurableShardedSystem::ReadLogRecords(uint64_t from, size_t max_records) {
  // Two passes: a checkpoint may sweep the log we snapshotted out from
  // under the file read; the second pass sees the fresh cut (and its
  // higher retired floor turns the race into "resync required").
  Status last_read = Status::OK();
  for (int attempt = 0; attempt < 2; ++attempt) {
    uint64_t retired = 0;
    DurabilityWatermark mark;
    std::string wal;
    {
      std::lock_guard<std::mutex> lock(manifest_mu_);
      retired = manifest_.floor;
      mark = Watermark();
      wal = manifest_.wal;
    }
    if (from < retired) {
      return Status::FailedPrecondition(
          "resync required: position " + std::to_string(from) +
          " precedes the retained log floor " + std::to_string(retired) +
          " (a checkpoint retired it)");
    }
    if (from > mark.applied) {
      return Status::FailedPrecondition(
          "replica ahead of primary: position " + std::to_string(from) +
          " exceeds the log end " + std::to_string(mark.applied) +
          " (diverged history, resync required)");
    }
    ReplicationSlice slice;
    slice.durable = mark.durable;
    slice.next = from;
    if (from >= mark.durable) return slice;  // Nothing durable to ship yet.
    const uint64_t want = std::min<uint64_t>(
        mark.durable - from, static_cast<uint64_t>(max_records));
    uint64_t skip = from - retired;
    last_read = ForEachWalLine(FilePath(wal), [&](std::string& line) {
      if (skip > 0) {
        --skip;
        return true;
      }
      if (slice.records.size() >= want) return false;
      slice.records.push_back(std::move(line));
      return true;
    });
    if (last_read.ok() && slice.records.size() == want) {
      slice.next = from + want;
      return slice;
    }
  }
  if (!last_read.ok()) return last_read;
  return Status::IOError("the log is shorter than its durable watermark");
}

Result<DurableShardedSystem::ReplicationApply>
DurableShardedSystem::ApplyReplicatedRecords(
    uint64_t start, const std::vector<std::string>& records) {
  ReplicationApply out;
  out.position = Watermark().applied;
  if (start > out.position) {
    return Status::FailedPrecondition(
        "replication gap: chunk starts at " + std::to_string(start) +
        ", this log is at " + std::to_string(out.position));
  }
  uint64_t at = start;
  for (const std::string& line : records) {
    if (at++ < out.position) continue;  // Reconnect overlap: applied.
    LTAM_ASSIGN_OR_RETURN(LoggedEvent event, DecodeEventLine(line));
    // Write-ahead on the replica too: the decoded record lands in this
    // directory's own log, in stream order through the control slot,
    // rendered by the primary's writer into the primary's bytes, before
    // it applies, so a replica restart — or this replica's own
    // promotion — replays the identical stream.
    log_->Append(num_shards(), event);
    if (event.is_tick) {
      engine_->Tick(event.tick_time);
    } else {
      const uint32_t shard = engine_->ShardOf(event.event.subject);
      // Logged through the control slot, which marks no shard.
      snapshot_stale_[shard] = true;
      out.decisions.push_back(
          ApplyAccessEvent(&engine_->shard_engine(shard), event.event));
    }
    out.position += 1;
  }
  Status published = log_->Publish();
  if (!published.ok()) {
    return published.WithContext("replica commit boundary");
  }
  out.alerts = engine_->DrainAlerts();
  return out;
}

}  // namespace ltam
