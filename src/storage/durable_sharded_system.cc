// Copyright 2026 The LTAM Authors.

#include "storage/durable_sharded_system.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <thread>
#include <unordered_set>
#include <utility>

#include "storage/cold_codec.h"
#include "storage/event_log.h"
#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/thread_name.h"

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
  // Join the workers before the logs they append through go away; the
  // pipeline's destructor then stops its log thread, which drains,
  // writes and best-effort-syncs every shard's queue.
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

std::string DurableShardedSystem::ShardWalName(uint32_t shard,
                                               uint64_t epoch) const {
  return "events-" + std::to_string(shard) + "-" + std::to_string(epoch) +
         ".wal";
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
  floor_.assign(num_shards, 0);
}

Status DurableShardedSystem::ReplayShardLogs(const ShardManifest& manifest) {
  const uint32_t n = engine_->num_shards();
  std::vector<Status> results(n, Status::OK());
  std::vector<uint64_t> replayed(n, 0);
  std::vector<std::thread> replayers;
  replayers.reserve(n);
  for (uint32_t k = 0; k < n; ++k) {
    const std::string path = FilePath(manifest.shards[k].wal);
    if (!FileExists(path)) {
      // WriteEpoch creates every log (and fsyncs the directory through
      // the manifest rename) before the manifest names it, so a
      // committed cut whose log vanished is data loss, not a crash
      // window — refuse to silently drop the shard's tail.
      results[k] = Status::IOError("shard WAL '" + path +
                                   "' named by the manifest is missing");
      continue;
    }
    // Repair a torn final record now, before replay and before any new
    // append lands on the same line as the torn bytes.
    Result<size_t> dropped = TruncateTornWalTail(path);
    if (!dropped.ok()) {
      results[k] = dropped.status();
      continue;
    }
    // Parallel replay across shards is safe under the live pipeline's
    // discipline: each log holds only its own shard's subjects
    // (validated below), so no two replayers ever touch the same
    // subject's records.
    replayers.emplace_back([this, k, path, &results, &replayed] {
      AccessControlEngine& shard_engine = engine_->shard_engine(k);
      results[k] = ReplayWal(path, [&](const LoggedEvent& event) -> Status {
        if (!event.is_tick && engine_->ShardOf(event.event.subject) != k) {
          return Status::ParseError("log for shard " + std::to_string(k) +
                                    " contains foreign subject " +
                                    std::to_string(event.event.subject));
        }
        ApplyLoggedEvent(&shard_engine, event);
        ++replayed[k];
        return Status::OK();
      });
    });
    NameThread(&replayers.back(), "ltam-replay-" + std::to_string(k));
  }
  for (std::thread& t : replayers) t.join();
  for (uint32_t k = 0; k < n; ++k) {
    if (!results[k].ok()) {
      return results[k].WithContext("replaying shard " + std::to_string(k));
    }
    // The replayed tail lives only in this shard's log, which the next
    // checkpoint deletes: that checkpoint must rewrite the snapshot even
    // though the fresh log has accepted nothing yet.
    if (replayed[k] > 0) snapshot_stale_[k] = true;
    recovery_.replayed_records += replayed[k];
    // The replayed records keep their positions: the live log's first
    // append follows them.
    floor_[k] += replayed[k];
  }
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
  const bool incremental = manifest_.shards.size() == n && log_ != nullptr;
  uint64_t dirty = 0;
  for (uint32_t k = 0; k < n; ++k) {
    ShardManifest::ShardFiles files;
    const MovementDatabase& db = engine_->shard_movements(k);
    const uint64_t logged = log_ != nullptr ? log_->shard(k).appended_seq() : 0;
    const bool shard_dirty = !incremental || logged > 0 || snapshot_stale_[k];
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
    files.wal = ShardWalName(k, epoch);
    for (const ColdFile& f : cold_files_[k]) files.cold.push_back(f.name);
    files.dropped_events = db.dropped_events();
    // Every record the retiring log accepted is in the snapshot now.
    files.floor = floor_[k] + logged;
    m.shards.push_back(std::move(files));
  }
  last_checkpoint_dirty_segments_ = dirty;
  checkpoint_dirty_segments_ += dirty;
  if (dirty_segments_counter_ != nullptr && dirty > 0) {
    dirty_segments_counter_->Increment(dirty);
  }
  // Fresh, empty logs for the new epoch (truncating any orphan a crashed
  // earlier attempt at this epoch left behind).
  std::vector<FileWriter> fresh;
  fresh.reserve(n);
  for (uint32_t k = 0; k < n; ++k) {
    LTAM_ASSIGN_OR_RETURN(FileWriter wal,
                          FileWriter::Create(FilePath(m.shards[k].wal)));
    fresh.push_back(std::move(wal));
  }
  // The commit point: everything above becomes the recovered state the
  // instant this rename lands.
  LTAM_RETURN_IF_ERROR(SaveManifest(m, FilePath(ManifestFileName())));
  snapshot_stale_.assign(n, false);
  std::unique_ptr<LogPipeline> retiring;
  {
    std::lock_guard<std::mutex> lock(manifest_mu_);
    // Retire the old log generation: everything it accepted is durable
    // now (the snapshot carries the live state, lost pipelined tails
    // included), and its counters must survive the swap. The floors and
    // the pipeline swap under manifest_mu_ so a shipper thread
    // snapshotting its read position never sees a half-retired shard.
    if (log_ != nullptr) {
      bool lost_tail = false;
      for (uint32_t k = 0; k < n; ++k) {
        const ShardLog& log = log_->shard(k);
        retired_append_failures_ += log.append_failures();
        retired_sync_failures_ += log.sync_failures();
        lost_tail = lost_tail || log.durable_seq() < log.appended_seq();
      }
      // A tail a failed log never synced becomes durable with this cut.
      retired_durable_ns_ = lost_tail
                                ? MonotonicNowNs()
                                : std::max(retired_durable_ns_,
                                           log_->durable_ns());
    }
    for (uint32_t k = 0; k < n; ++k) floor_[k] = m.shards[k].floor;
    manifest_ = std::move(m);
    retiring = std::move(log_);
    log_ = std::make_unique<LogPipeline>(std::move(fresh),
                                         options_.durability);
  }
  // Stops the old log thread before its files go, outside manifest_mu_
  // so shippers never wait on a drain.
  retiring.reset();
  return Status::OK();
}

void DurableShardedSystem::RemoveEpochFiles(const ShardManifest& old_manifest) {
  // Incremental checkpoints re-reference clean shards' snapshot files
  // (and cold segments live across many epochs), so only files the NEW
  // committed cut no longer names may go.
  std::unordered_set<std::string> keep{manifest_.base_snapshot};
  for (const ShardManifest::ShardFiles& files : manifest_.shards) {
    keep.insert(files.snapshot);
    keep.insert(files.wal);
    keep.insert(files.cold.begin(), files.cold.end());
  }
  auto remove_unless_kept = [this, &keep](const std::string& name) {
    if (keep.count(name) == 0) std::remove(FilePath(name).c_str());
  };
  remove_unless_kept(old_manifest.base_snapshot);
  for (const ShardManifest::ShardFiles& files : old_manifest.shards) {
    remove_unless_kept(files.snapshot);
    remove_unless_kept(files.wal);
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
    return log_->shard(shard).Append(LoggedEvent::Access(event));
  };
  hooks.after_batch = [this](uint32_t shard) {
    return log_->shard(shard).BatchBoundary();
  };
  hooks.after_slices = [this] { log_->Wake(); };
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
    // on top of the committed floors.
    LTAM_RETURN_IF_ERROR(sys->engine_->Seed(MovementDatabase()));
    for (uint32_t k = 0; k < manifest.num_shards; ++k) {
      sys->floor_[k] = manifest.shards[k].floor;
    }
    LTAM_RETURN_IF_ERROR(sys->ReplayShardLogs(manifest));
    sys->epoch_ = manifest.epoch;
    sys->manifest_ = std::move(manifest);
    // Appends resume on each shard's committed WAL.
    std::vector<FileWriter> wals;
    for (const ShardManifest::ShardFiles& files : sys->manifest_.shards) {
      LTAM_ASSIGN_OR_RETURN(FileWriter wal,
                            FileWriter::Open(sys->FilePath(files.wal)));
      wals.push_back(std::move(wal));
    }
    sys->log_ = std::make_unique<LogPipeline>(std::move(wals),
                                              sys->options_.durability);
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
  if (sys->recovery_.replayed_records > 0) {
    // The recovery cut. The replayed tail would otherwise stay in logs
    // whose lines precede every record this instance appends, so a
    // replication position would map onto the wrong line. The cut folds
    // the tail into snapshots, commits each shard's floor (the committed
    // floor plus the records replay applied), and starts every shard on
    // an empty log. A clean restart replays nothing and commits nothing.
    LTAM_RETURN_IF_ERROR(
        sys->Checkpoint().WithContext("committing the recovery cut"));
  }
  sys->UpdateColdGauges();
  sys->InstallHooks();
  return sys;
}

Status DurableShardedSystem::Tick(Chronon t) {
  const LoggedEvent tick = LoggedEvent::Tick(t);
  Status first_error;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    ShardLog& log = log_->shard(k);
    Status appended = log.Append(tick);
    if (!appended.ok()) {
      // Write-ahead per shard: a shard whose tick could not be logged is
      // not ticked, so its live state never diverges from what recovery
      // would replay (pipelined logs never refuse here).
      if (first_error.ok()) first_error = std::move(appended);
      continue;
    }
    engine_->TickShard(k, t);
    Status boundary = log.BatchBoundary();
    // A failed boundary leaves the tick appended and applied
    // (consistent); only its durability is in doubt — report it.
    if (!boundary.ok() && first_error.ok()) first_error = std::move(boundary);
  }
  log_->Wake();
  return first_error;
}

Status DurableShardedSystem::WaitDurable() { return log_->Flush(); }

DurabilityWatermark DurableShardedSystem::Watermark() const {
  DurabilityWatermark mark;
  mark.durable_ns = std::max(retired_durable_ns_, log_->durable_ns());
  for (uint32_t k = 0; k < num_shards(); ++k) {
    const DurabilityWatermark shard = ShardWatermark(k);
    mark.applied += shard.applied;
    mark.durable += shard.durable;
  }
  return mark;
}

DurabilityWatermark DurableShardedSystem::ShardWatermark(
    uint32_t shard) const {
  DurabilityWatermark mark;
  mark.applied = floor_[shard] + log_->shard(shard).appended_seq();
  mark.durable = floor_[shard] + log_->shard(shard).durable_seq();
  return mark;
}

uint64_t DurableShardedSystem::wal_append_failures() const {
  uint64_t total = retired_append_failures_;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    total += log_->shard(k).append_failures();
  }
  return total;
}

uint64_t DurableShardedSystem::wal_sync_failures() const {
  uint64_t total = retired_sync_failures_;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    total += log_->shard(k).sync_failures();
  }
  return total;
}

Status DurableShardedSystem::Checkpoint() {
  // Quiesce the write path. A sticky-failed pipelined log cannot flush,
  // but the checkpoint REPAIRS it: the snapshot persists the live state
  // (which includes every event whose log bytes were lost), and the new
  // epoch starts with fresh, healthy logs.
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
  size_t total = 0;
  for (uint32_t k = 0; k < num_shards(); ++k) {
    total += static_cast<size_t>(log_->shard(k).appended_seq());
  }
  return total;
}

Result<DurableShardedSystem::ReplicationSlice>
DurableShardedSystem::ReadShardRecords(uint32_t shard, uint64_t from,
                                       size_t max_records) {
  if (shard >= num_shards()) {
    return Status::InvalidArgument("replication read from shard " +
                                   std::to_string(shard) + " of " +
                                   std::to_string(num_shards()));
  }
  // Two passes: a checkpoint may sweep the log we snapshotted out from
  // under the file read; the second pass sees the fresh cut (and its
  // higher retired floor turns the race into "resync required").
  Status last_read = Status::OK();
  for (int attempt = 0; attempt < 2; ++attempt) {
    uint64_t retired = 0;
    uint64_t durable = 0;
    uint64_t appended = 0;
    std::string wal;
    {
      std::lock_guard<std::mutex> lock(manifest_mu_);
      retired = floor_[shard];
      durable = retired + log_->shard(shard).durable_seq();
      appended = retired + log_->shard(shard).appended_seq();
      wal = manifest_.shards[shard].wal;
    }
    if (from < retired) {
      return Status::FailedPrecondition(
          "resync required: shard " + std::to_string(shard) + " position " +
          std::to_string(from) + " precedes the retained log floor " +
          std::to_string(retired) + " (a checkpoint retired it)");
    }
    if (from > appended) {
      return Status::FailedPrecondition(
          "replica ahead of primary: shard " + std::to_string(shard) +
          " position " + std::to_string(from) + " exceeds the log end " +
          std::to_string(appended) + " (diverged history, resync required)");
    }
    ReplicationSlice slice;
    slice.durable = durable;
    slice.next = from;
    if (from >= durable) return slice;  // Nothing durable to ship yet.
    const uint64_t want =
        std::min<uint64_t>(durable - from, static_cast<uint64_t>(max_records));
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
  return Status::IOError("shard " + std::to_string(shard) +
                         " log is shorter than its durable watermark");
}

Result<DurableShardedSystem::ReplicationApply>
DurableShardedSystem::ApplyReplicatedRecords(
    uint32_t shard, uint64_t start, const std::vector<std::string>& records) {
  if (shard >= num_shards()) {
    return Status::InvalidArgument("replicated chunk for shard " +
                                   std::to_string(shard) + " of " +
                                   std::to_string(num_shards()));
  }
  ShardLog& log = log_->shard(shard);
  ReplicationApply out;
  out.position = floor_[shard] + log.appended_seq();
  if (start > out.position) {
    return Status::FailedPrecondition(
        "replication gap: chunk for shard " + std::to_string(shard) +
        " starts at " + std::to_string(start) + ", shard is at " +
        std::to_string(out.position));
  }
  AccessControlEngine& shard_engine = engine_->shard_engine(shard);
  uint64_t at = start;
  for (const std::string& line : records) {
    if (at++ < out.position) continue;  // Reconnect overlap: applied.
    LTAM_ASSIGN_OR_RETURN(LoggedEvent event, DecodeEventLine(line));
    if (!event.is_tick && engine_->ShardOf(event.event.subject) != shard) {
      return Status::ParseError(
          "replicated record for shard " + std::to_string(shard) +
          " carries foreign subject " +
          std::to_string(event.event.subject));
    }
    // Write-ahead on the replica too: the decoded record lands in this
    // directory's own log, rendered by the primary's writer into the
    // primary's bytes, before it applies, so a replica restart — or this
    // replica's own promotion — replays the identical stream.
    Status appended = log.Append(event);
    if (!appended.ok()) return appended.WithContext("replica log append");
    if (event.is_tick) {
      engine_->TickShard(shard, event.tick_time);
    } else {
      out.decisions.push_back(ApplyAccessEvent(&shard_engine, event.event));
    }
    out.position += 1;
  }
  Status boundary = log.BatchBoundary();
  log_->Wake();
  if (!boundary.ok()) return boundary.WithContext("replica commit boundary");
  out.alerts = engine_->DrainAlerts();
  return out;
}

}  // namespace ltam
