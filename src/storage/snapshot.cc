// Copyright 2026 The LTAM Authors.

#include "storage/snapshot.h"

#include <string_view>
#include <utility>

#include "storage/codec.h"
#include "storage/wal.h"

namespace ltam {

namespace {

/// The file a snapshot's codec lines are rendered into, through one
/// buffer that a FileWriter writes out whenever it has filled past
/// kSpillBytes and at Finish: a write per 64 KiB however large the
/// snapshot, and no more memory than the buffer (one holding a whole
/// base snapshot would stay resident after every checkpoint).
class LineFile {
 public:
  explicit LineFile(FileWriter writer) : writer_(std::move(writer)) {
    buffer_.reserve(kSpillBytes + kSpillBytes / 4);
  }

  /// Starts the next line (it ends when the Line goes out of scope),
  /// first writing out a full buffer.
  Line Append(std::string_view tag) {
    if (buffer_.size() >= kSpillBytes) Spill();
    return Line(&buffer_, tag);
  }

  /// Writes what is buffered and fsyncs: the file is durable when this
  /// returns OK.
  Status Finish() {
    Spill();
    if (!written_.ok()) return written_;
    return writer_.Sync();
  }

 private:
  static constexpr size_t kSpillBytes = size_t{64} << 10;

  void Spill() {
    if (written_.ok()) written_ = writer_.Write(buffer_);
    buffer_.clear();
  }

  FileWriter writer_;
  std::string buffer_;
  Status written_;  // The first failed write, reported at Finish.
};

void RenderMove(const MovementEvent& ev, LineFile* out) {
  Line line = out->Append("move");
  line.Num(ev.time).Num(ev.subject);
  if (ev.to == kInvalidLocation) {
    line.Str("out");
  } else {
    line.Num(ev.to);
  }
}

/// `move <t> <s> <l|out>`.
Status ApplyMoveRecord(LineReader& record, MovementDatabase* movements) {
  LTAM_ASSIGN_OR_RETURN(Chronon t, record.Int());
  LTAM_ASSIGN_OR_RETURN(SubjectId s, record.Id());
  LocationId dest = kInvalidLocation;
  if (!record.TakeIf("out")) {
    LTAM_ASSIGN_OR_RETURN(dest, record.Id());
  }
  return movements->RecordMovement(t, s, dest);
}

}  // namespace

Status SaveSnapshot(const SystemState& state, const std::string& path) {
  LTAM_ASSIGN_OR_RETURN(FileWriter writer, FileWriter::Create(path));
  LineFile file(std::move(writer));

  // --- Graph ---------------------------------------------------------------
  const MultilevelLocationGraph& g = state.graph;
  file.Append("graph-root").Str(g.location(g.root()).name);
  for (LocationId id = 1; id < g.size(); ++id) {
    const Location& loc = g.location(id);
    file.Append("loc")
        .Num(id)
        .Str(loc.name)
        .Str(loc.IsComposite() ? "composite" : "primitive")
        .Num(loc.parent)
        .Str(loc.is_entry ? "1" : "0")
        .Str(loc.description);
    if (loc.boundary.has_value()) {
      Line line = file.Append("boundary");
      line.Num(id);
      for (const Point& p : loc.boundary->ring()) line.Real(p.x).Real(p.y);
    }
  }
  for (const auto& [a, b] : g.Edges()) file.Append("edge").Num(a).Num(b);

  // --- Profiles --------------------------------------------------------------
  const UserProfileDatabase& profiles = state.profiles;
  for (SubjectId s : profiles.AllSubjects()) {
    file.Append("subject").Num(s).Str(profiles.subject(s).name);
  }
  // Supervisors after all subjects exist (forward references are legal).
  for (SubjectId s : profiles.AllSubjects()) {
    const Subject& subj = profiles.subject(s);
    if (subj.supervisor != kInvalidSubject) {
      file.Append("supervisor").Num(s).Num(subj.supervisor);
    }
    for (const std::string& group : subj.groups) {
      file.Append("group").Num(s).Str(group);
    }
    for (const std::string& role : subj.roles) {
      file.Append("role").Num(s).Str(role);
    }
    for (const auto& [key, value] : subj.attributes) {
      file.Append("attr").Num(s).Str(key).Str(value);
    }
  }

  // --- Authorizations --------------------------------------------------------
  const AuthorizationDatabase& db = state.auth_db;
  for (AuthId id = 0; id < db.size(); ++id) {
    const AuthRecord& rec = db.record(id);
    file.Append("auth")
        .Num(id)
        .Num(rec.auth.entry_duration().start())
        .Num(rec.auth.entry_duration().end())
        .Num(rec.auth.exit_duration().start())
        .Num(rec.auth.exit_duration().end())
        .Num(rec.auth.subject())
        .Num(rec.auth.location())
        .Num(rec.auth.max_entries())
        .Str(rec.origin == AuthOrigin::kDerived ? "derived" : "explicit")
        .Num(rec.source_rule)
        .Str(rec.revoked ? "1" : "0")
        .Num(rec.entries_used);
  }

  // --- Rules -------------------------------------------------------------------
  for (const AuthorizationRule& rule : state.rules) {
    file.Append("rule")
        .Num(rule.valid_from)
        .Num(rule.base)
        .Str(rule.op_entry ? rule.op_entry->ToString() : "WHENEVER")
        .Str(rule.op_exit ? rule.op_exit->ToString() : "WHENEVER")
        .Str(rule.op_subject ? rule.op_subject->ToString() : "Identity")
        .Str(rule.op_location ? rule.op_location->ToString() : "Identity")
        .Str(rule.exp_n.has_value() ? rule.exp_n->text() : "n")
        .Str(rule.label);
  }

  // --- Movements -----------------------------------------------------------------
  for (const MovementEvent& ev : state.movements.history()) {
    RenderMove(ev, &file);
  }
  return file.Finish().WithContext("snapshot '" + path + "'");
}

Result<SystemState> LoadSnapshot(const std::string& path) {
  return LoadSnapshot(path, SubjectOperatorRegistry::Default(),
                      LocationOperatorRegistry::Default());
}

Result<SystemState> LoadSnapshot(
    const std::string& path, const SubjectOperatorRegistry& subject_ops,
    const LocationOperatorRegistry& location_ops) {
  SystemState state;
  bool graph_initialized = false;
  // Authorizations replay in id order; ledger/revocations apply inline.
  LTAM_RETURN_IF_ERROR(ForEachRecord(path, "snapshot", [&](LineReader& rec) {
    const std::string_view type = rec.tag();
    if (type == "graph-root") {
      LTAM_ASSIGN_OR_RETURN(std::string name, rec.Str());
      state.graph = MultilevelLocationGraph(name);
      graph_initialized = true;
      return Status::OK();
    }
    if (!graph_initialized) {
      return Status::ParseError("snapshot must start with graph-root");
    }
    if (type == "loc") {
      LTAM_ASSIGN_OR_RETURN(LocationId id, rec.Id());
      LTAM_ASSIGN_OR_RETURN(std::string name, rec.Str());
      LTAM_ASSIGN_OR_RETURN(std::string_view kind,
                            rec.Word({"composite", "primitive"}));
      LTAM_ASSIGN_OR_RETURN(LocationId parent, rec.Id());
      LTAM_ASSIGN_OR_RETURN(std::string_view is_entry, rec.Word({"0", "1"}));
      LTAM_ASSIGN_OR_RETURN(std::string description, rec.Str());
      LTAM_ASSIGN_OR_RETURN(LocationId added,
                            kind == "composite"
                                ? state.graph.AddComposite(name, parent)
                                : state.graph.AddPrimitive(name, parent));
      if (added != id) {
        return Status::ParseError("snapshot location ids are not dense");
      }
      if (is_entry == "1") {
        LTAM_RETURN_IF_ERROR(state.graph.SetEntry(added, true));
      }
      if (!description.empty()) {
        LTAM_RETURN_IF_ERROR(state.graph.SetDescription(added, description));
      }
      return Status::OK();
    }
    if (type == "boundary") {
      LTAM_ASSIGN_OR_RETURN(LocationId id, rec.Id());
      if (rec.remaining() % 2 != 0) {
        return Status::ParseError("boundary record has odd coordinate count");
      }
      std::vector<Point> ring;
      while (rec.remaining() > 0) {
        LTAM_ASSIGN_OR_RETURN(double x, rec.Real());
        LTAM_ASSIGN_OR_RETURN(double y, rec.Real());
        ring.push_back(Point{x, y});
      }
      LTAM_ASSIGN_OR_RETURN(Polygon poly, Polygon::Make(std::move(ring)));
      return state.graph.SetBoundary(id, poly);
    }
    if (type == "edge") {
      LTAM_ASSIGN_OR_RETURN(LocationId a, rec.Id());
      LTAM_ASSIGN_OR_RETURN(LocationId b, rec.Id());
      return state.graph.AddEdge(a, b);
    }
    if (type == "subject") {
      LTAM_ASSIGN_OR_RETURN(SubjectId id, rec.Id());
      LTAM_ASSIGN_OR_RETURN(std::string name, rec.Str());
      LTAM_ASSIGN_OR_RETURN(SubjectId added, state.profiles.AddSubject(name));
      if (added != id) {
        return Status::ParseError("snapshot subject ids are not dense");
      }
      return Status::OK();
    }
    if (type == "supervisor") {
      LTAM_ASSIGN_OR_RETURN(SubjectId s, rec.Id());
      LTAM_ASSIGN_OR_RETURN(SubjectId sup, rec.Id());
      return state.profiles.SetSupervisor(s, sup);
    }
    if (type == "group") {
      LTAM_ASSIGN_OR_RETURN(SubjectId s, rec.Id());
      LTAM_ASSIGN_OR_RETURN(std::string group, rec.Str());
      return state.profiles.AddToGroup(s, group);
    }
    if (type == "role") {
      LTAM_ASSIGN_OR_RETURN(SubjectId s, rec.Id());
      LTAM_ASSIGN_OR_RETURN(std::string role, rec.Str());
      return state.profiles.AssignRole(s, role);
    }
    if (type == "attr") {
      LTAM_ASSIGN_OR_RETURN(SubjectId s, rec.Id());
      LTAM_ASSIGN_OR_RETURN(std::string key, rec.Str());
      LTAM_ASSIGN_OR_RETURN(std::string value, rec.Str());
      return state.profiles.SetAttribute(s, key, value);
    }
    if (type == "auth") {
      LTAM_ASSIGN_OR_RETURN(AuthId id, rec.Id());
      LTAM_ASSIGN_OR_RETURN(Chronon es, rec.Int());
      LTAM_ASSIGN_OR_RETURN(Chronon ee, rec.Int());
      LTAM_ASSIGN_OR_RETURN(Chronon xs, rec.Int());
      LTAM_ASSIGN_OR_RETURN(Chronon xe, rec.Int());
      LTAM_ASSIGN_OR_RETURN(SubjectId s, rec.Id());
      LTAM_ASSIGN_OR_RETURN(LocationId l, rec.Id());
      LTAM_ASSIGN_OR_RETURN(int64_t n, rec.Int());
      LTAM_ASSIGN_OR_RETURN(std::string_view origin,
                            rec.Word({"derived", "explicit"}));
      LTAM_ASSIGN_OR_RETURN(RuleId rule, rec.Id());
      LTAM_ASSIGN_OR_RETURN(std::string_view revoked, rec.Word({"0", "1"}));
      LTAM_ASSIGN_OR_RETURN(int64_t used, rec.Int());
      LTAM_ASSIGN_OR_RETURN(
          LocationTemporalAuthorization auth,
          LocationTemporalAuthorization::Make(TimeInterval(es, ee),
                                              TimeInterval(xs, xe),
                                              LocationAuthorization{s, l}, n));
      const AuthId added = origin == "derived"
                               ? state.auth_db.AddDerived(auth, rule)
                               : state.auth_db.Add(auth);
      if (added != id) {
        return Status::ParseError("snapshot auth ids are not dense");
      }
      LTAM_RETURN_IF_ERROR(state.auth_db.RestoreEntriesUsed(added, used));
      if (revoked == "1") {
        LTAM_RETURN_IF_ERROR(state.auth_db.Revoke(added));
      }
      return Status::OK();
    }
    if (type == "rule") {
      AuthorizationRule rule;
      LTAM_ASSIGN_OR_RETURN(rule.valid_from, rec.Int());
      LTAM_ASSIGN_OR_RETURN(rule.base, rec.Id());
      LTAM_ASSIGN_OR_RETURN(std::string op_entry, rec.Str());
      LTAM_ASSIGN_OR_RETURN(rule.op_entry, ParseTemporalOperator(op_entry));
      LTAM_ASSIGN_OR_RETURN(std::string op_exit, rec.Str());
      LTAM_ASSIGN_OR_RETURN(rule.op_exit, ParseTemporalOperator(op_exit));
      LTAM_ASSIGN_OR_RETURN(std::string op_subject, rec.Str());
      LTAM_ASSIGN_OR_RETURN(rule.op_subject, subject_ops.Parse(op_subject));
      LTAM_ASSIGN_OR_RETURN(std::string op_location, rec.Str());
      LTAM_ASSIGN_OR_RETURN(rule.op_location, location_ops.Parse(op_location));
      LTAM_ASSIGN_OR_RETURN(std::string expn, rec.Str());
      LTAM_ASSIGN_OR_RETURN(rule.exp_n, CountExpr::Parse(expn));
      LTAM_ASSIGN_OR_RETURN(rule.label, rec.Str());
      rule.id = static_cast<RuleId>(state.rules.size());
      state.rules.push_back(std::move(rule));
      return Status::OK();
    }
    if (type == "move") return ApplyMoveRecord(rec, &state.movements);
    return Status::ParseError("unknown snapshot record type '" +
                              std::string(type) + "'");
  }));
  return state;
}

Status SaveMovements(const MovementDatabase& movements,
                     const std::string& path) {
  LTAM_ASSIGN_OR_RETURN(FileWriter writer, FileWriter::Create(path));
  LineFile file(std::move(writer));
  for (const MovementEvent& ev : movements.history()) RenderMove(ev, &file);
  return file.Finish().WithContext("movement segment '" + path + "'");
}

Result<MovementDatabase> LoadMovements(const std::string& path) {
  MovementDatabase movements;
  LTAM_RETURN_IF_ERROR(
      ForEachRecord(path, "movement segment", [&](LineReader& rec) {
        if (rec.tag() != "move") {
          return Status::ParseError("unexpected record '" +
                                    std::string(rec.tag()) + "'");
        }
        return ApplyMoveRecord(rec, &movements);
      }));
  return movements;
}

}  // namespace ltam
