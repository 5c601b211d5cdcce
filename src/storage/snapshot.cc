// Copyright 2026 The LTAM Authors.

#include "storage/snapshot.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "storage/codec.h"
#include "util/string_util.h"

namespace ltam {

namespace {

/// The file codec lines are rendered into, through one buffer that is
/// written out whenever a line fills it past kSpillBytes and at Finish:
/// a write per 64 KiB however large the snapshot, and no more memory
/// than the buffer (one holding a whole base snapshot would stay
/// resident after every checkpoint).
class LineFile {
 public:
  explicit LineFile(const std::string& path)
      : file_(path, std::ios::binary | std::ios::trunc) {
    buffer_.reserve(kSpillBytes + kSpillBytes / 4);
  }

  bool is_open() const { return file_.is_open(); }
  std::string* buffer() { return &buffer_; }

  void EndLine() {
    buffer_ += '\n';
    if (buffer_.size() >= kSpillBytes) Spill();
  }

  /// Writes what is buffered; reports any write that failed.
  Status Finish(const char* what) {
    Spill();
    file_.flush();
    if (!file_.good()) {
      return Status::IOError(std::string(what) + " write failed");
    }
    return Status::OK();
  }

 private:
  static constexpr size_t kSpillBytes = size_t{64} << 10;

  void Spill() {
    file_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }

  std::ofstream file_;
  std::string buffer_;
};

/// One codec line rendered straight into a LineFile's buffer: the bytes
/// EncodeRecord produces for a Record of the same fields (strings
/// escaped, integers in std::to_chars' decimal form, which needs no
/// escaping, doubles as "%.17g"), without building the Record. The line
/// ends when it goes out of scope.
class Line {
 public:
  Line(LineFile* file, std::string_view type)
      : file_(file), out_(file->buffer()) {
    AppendEscapedField(type, out_);
  }
  ~Line() { file_->EndLine(); }
  Line(const Line&) = delete;
  Line& operator=(const Line&) = delete;

  Line& Str(std::string_view field) {
    *out_ += '\t';
    AppendEscapedField(field, out_);
    return *this;
  }
  template <typename Int>
  Line& Num(Int value) {
    char buf[24];
    const std::to_chars_result end =
        std::to_chars(buf, buf + sizeof(buf), value);
    *out_ += '\t';
    out_->append(buf, end.ptr);
    return *this;
  }
  Line& Real(double value) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", value);
    *out_ += '\t';
    out_->append(buf, static_cast<size_t>(n));
    return *this;
  }

 private:
  LineFile* file_;
  std::string* out_;
};

void RenderMove(const MovementEvent& ev, LineFile* out) {
  Line line(out, "move");
  line.Num(ev.time).Num(ev.subject);
  if (ev.to == kInvalidLocation) {
    line.Str("out");
  } else {
    line.Num(ev.to);
  }
}

Result<int64_t> F_I64(const Record& rec, size_t i) {
  if (i >= rec.fields.size()) {
    return Status::ParseError("record '" + rec.type + "' missing field " +
                              std::to_string(i));
  }
  return ParseInt64(rec.fields[i]);
}

Result<std::string> F_Str(const Record& rec, size_t i) {
  if (i >= rec.fields.size()) {
    return Status::ParseError("record '" + rec.type + "' missing field " +
                              std::to_string(i));
  }
  return rec.fields[i];
}

Status ApplyMoveRecord(const Record& rec, MovementDatabase* movements) {
  LTAM_ASSIGN_OR_RETURN(int64_t t, F_I64(rec, 0));
  LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 1));
  LTAM_ASSIGN_OR_RETURN(std::string to, F_Str(rec, 2));
  if (s < 0 || s > static_cast<int64_t>(UINT32_MAX)) {
    return Status::ParseError("move subject id out of range");
  }
  LocationId dest = kInvalidLocation;
  if (to != "out") {
    LTAM_ASSIGN_OR_RETURN(int64_t l, ParseInt64(to));
    if (l < 0 || l > static_cast<int64_t>(UINT32_MAX)) {
      return Status::ParseError("move location id out of range");
    }
    dest = static_cast<LocationId>(l);
  }
  return movements->RecordMovement(t, static_cast<SubjectId>(s), dest);
}

}  // namespace

Status SaveSnapshot(const SystemState& state, const std::string& path) {
  LineFile file(path);
  if (!file.is_open()) {
    return Status::IOError("cannot open snapshot '" + path + "' for write");
  }

  // --- Graph ---------------------------------------------------------------
  const MultilevelLocationGraph& g = state.graph;
  Line(&file, "graph-root").Str(g.location(g.root()).name);
  for (LocationId id = 1; id < g.size(); ++id) {
    const Location& loc = g.location(id);
    Line(&file, "loc")
        .Num(id)
        .Str(loc.name)
        .Str(loc.IsComposite() ? "composite" : "primitive")
        .Num(loc.parent)
        .Str(loc.is_entry ? "1" : "0")
        .Str(loc.description);
    if (loc.boundary.has_value()) {
      Line line(&file, "boundary");
      line.Num(id);
      for (const Point& p : loc.boundary->ring()) line.Real(p.x).Real(p.y);
    }
  }
  for (const auto& [a, b] : g.Edges()) Line(&file, "edge").Num(a).Num(b);

  // --- Profiles --------------------------------------------------------------
  const UserProfileDatabase& profiles = state.profiles;
  for (SubjectId s : profiles.AllSubjects()) {
    Line(&file, "subject").Num(s).Str(profiles.subject(s).name);
  }
  // Supervisors after all subjects exist (forward references are legal).
  for (SubjectId s : profiles.AllSubjects()) {
    const Subject& subj = profiles.subject(s);
    if (subj.supervisor != kInvalidSubject) {
      Line(&file, "supervisor").Num(s).Num(subj.supervisor);
    }
    for (const std::string& group : subj.groups) {
      Line(&file, "group").Num(s).Str(group);
    }
    for (const std::string& role : subj.roles) {
      Line(&file, "role").Num(s).Str(role);
    }
    for (const auto& [key, value] : subj.attributes) {
      Line(&file, "attr").Num(s).Str(key).Str(value);
    }
  }

  // --- Authorizations --------------------------------------------------------
  const AuthorizationDatabase& db = state.auth_db;
  for (AuthId id = 0; id < db.size(); ++id) {
    const AuthRecord& rec = db.record(id);
    Line(&file, "auth")
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
    Line(&file, "rule")
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
  return file.Finish("snapshot");
}

Result<SystemState> LoadSnapshot(const std::string& path) {
  return LoadSnapshot(path, SubjectOperatorRegistry::Default(),
                      LocationOperatorRegistry::Default());
}

Result<SystemState> LoadSnapshot(
    const std::string& path, const SubjectOperatorRegistry& subject_ops,
    const LocationOperatorRegistry& location_ops) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open snapshot '" + path + "'");
  }
  SystemState state;
  bool graph_initialized = false;
  std::string line;
  size_t line_no = 0;
  // Authorizations replay in id order; ledger/revocations apply inline.
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Result<Record> rec_or = DecodeRecord(line);
    if (!rec_or.ok()) {
      return rec_or.status().WithContext("snapshot line " +
                                         std::to_string(line_no));
    }
    const Record& rec = *rec_or;

    if (rec.type == "graph-root") {
      LTAM_ASSIGN_OR_RETURN(std::string name, F_Str(rec, 0));
      state.graph = MultilevelLocationGraph(name);
      graph_initialized = true;
      continue;
    }
    if (!graph_initialized) {
      return Status::ParseError("snapshot must start with graph-root");
    }
    if (rec.type == "loc") {
      LTAM_ASSIGN_OR_RETURN(int64_t id, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(std::string name, F_Str(rec, 1));
      LTAM_ASSIGN_OR_RETURN(std::string kind, F_Str(rec, 2));
      LTAM_ASSIGN_OR_RETURN(int64_t parent, F_I64(rec, 3));
      LTAM_ASSIGN_OR_RETURN(int64_t is_entry, F_I64(rec, 4));
      LTAM_ASSIGN_OR_RETURN(std::string description, F_Str(rec, 5));
      Result<LocationId> added =
          kind == "composite"
              ? state.graph.AddComposite(name,
                                         static_cast<LocationId>(parent))
              : state.graph.AddPrimitive(name,
                                         static_cast<LocationId>(parent));
      if (!added.ok()) return added.status();
      if (*added != static_cast<LocationId>(id)) {
        return Status::ParseError("snapshot location ids are not dense");
      }
      if (is_entry != 0) {
        LTAM_RETURN_IF_ERROR(state.graph.SetEntry(*added, true));
      }
      if (!description.empty()) {
        LTAM_RETURN_IF_ERROR(state.graph.SetDescription(*added, description));
      }
      continue;
    }
    if (rec.type == "boundary") {
      LTAM_ASSIGN_OR_RETURN(int64_t id, F_I64(rec, 0));
      if ((rec.fields.size() - 1) % 2 != 0) {
        return Status::ParseError("boundary record has odd coordinate count");
      }
      std::vector<Point> ring;
      for (size_t i = 1; i + 1 < rec.fields.size(); i += 2) {
        LTAM_ASSIGN_OR_RETURN(double x, ParseDouble(rec.fields[i]));
        LTAM_ASSIGN_OR_RETURN(double y, ParseDouble(rec.fields[i + 1]));
        ring.push_back(Point{x, y});
      }
      LTAM_ASSIGN_OR_RETURN(Polygon poly, Polygon::Make(std::move(ring)));
      LTAM_RETURN_IF_ERROR(
          state.graph.SetBoundary(static_cast<LocationId>(id), poly));
      continue;
    }
    if (rec.type == "edge") {
      LTAM_ASSIGN_OR_RETURN(int64_t a, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(int64_t b, F_I64(rec, 1));
      LTAM_RETURN_IF_ERROR(state.graph.AddEdge(static_cast<LocationId>(a),
                                               static_cast<LocationId>(b)));
      continue;
    }
    if (rec.type == "subject") {
      LTAM_ASSIGN_OR_RETURN(int64_t id, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(std::string name, F_Str(rec, 1));
      LTAM_ASSIGN_OR_RETURN(SubjectId added, state.profiles.AddSubject(name));
      if (added != static_cast<SubjectId>(id)) {
        return Status::ParseError("snapshot subject ids are not dense");
      }
      continue;
    }
    if (rec.type == "supervisor") {
      LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(int64_t sup, F_I64(rec, 1));
      LTAM_RETURN_IF_ERROR(state.profiles.SetSupervisor(
          static_cast<SubjectId>(s), static_cast<SubjectId>(sup)));
      continue;
    }
    if (rec.type == "group") {
      LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(std::string group, F_Str(rec, 1));
      LTAM_RETURN_IF_ERROR(
          state.profiles.AddToGroup(static_cast<SubjectId>(s), group));
      continue;
    }
    if (rec.type == "role") {
      LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(std::string role, F_Str(rec, 1));
      LTAM_RETURN_IF_ERROR(
          state.profiles.AssignRole(static_cast<SubjectId>(s), role));
      continue;
    }
    if (rec.type == "attr") {
      LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(std::string key, F_Str(rec, 1));
      LTAM_ASSIGN_OR_RETURN(std::string value, F_Str(rec, 2));
      LTAM_RETURN_IF_ERROR(state.profiles.SetAttribute(
          static_cast<SubjectId>(s), key, value));
      continue;
    }
    if (rec.type == "auth") {
      LTAM_ASSIGN_OR_RETURN(int64_t id, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(int64_t es, F_I64(rec, 1));
      LTAM_ASSIGN_OR_RETURN(int64_t ee, F_I64(rec, 2));
      LTAM_ASSIGN_OR_RETURN(int64_t xs, F_I64(rec, 3));
      LTAM_ASSIGN_OR_RETURN(int64_t xe, F_I64(rec, 4));
      LTAM_ASSIGN_OR_RETURN(int64_t s, F_I64(rec, 5));
      LTAM_ASSIGN_OR_RETURN(int64_t l, F_I64(rec, 6));
      LTAM_ASSIGN_OR_RETURN(int64_t n, F_I64(rec, 7));
      LTAM_ASSIGN_OR_RETURN(std::string origin, F_Str(rec, 8));
      LTAM_ASSIGN_OR_RETURN(int64_t rule, F_I64(rec, 9));
      LTAM_ASSIGN_OR_RETURN(int64_t revoked, F_I64(rec, 10));
      LTAM_ASSIGN_OR_RETURN(int64_t used, F_I64(rec, 11));
      LTAM_ASSIGN_OR_RETURN(
          LocationTemporalAuthorization auth,
          LocationTemporalAuthorization::Make(
              TimeInterval(es, ee), TimeInterval(xs, xe),
              LocationAuthorization{static_cast<SubjectId>(s),
                                    static_cast<LocationId>(l)},
              n));
      AuthId added =
          origin == "derived"
              ? state.auth_db.AddDerived(auth, static_cast<RuleId>(rule))
              : state.auth_db.Add(auth);
      if (added != static_cast<AuthId>(id)) {
        return Status::ParseError("snapshot auth ids are not dense");
      }
      for (int64_t i = 0; i < used; ++i) {
        LTAM_RETURN_IF_ERROR(state.auth_db.RecordEntry(added));
      }
      if (revoked != 0) {
        LTAM_RETURN_IF_ERROR(state.auth_db.Revoke(added));
      }
      continue;
    }
    if (rec.type == "rule") {
      AuthorizationRule rule;
      LTAM_ASSIGN_OR_RETURN(rule.valid_from, F_I64(rec, 0));
      LTAM_ASSIGN_OR_RETURN(int64_t base, F_I64(rec, 1));
      rule.base = static_cast<AuthId>(base);
      LTAM_ASSIGN_OR_RETURN(std::string op_entry, F_Str(rec, 2));
      LTAM_ASSIGN_OR_RETURN(rule.op_entry, ParseTemporalOperator(op_entry));
      LTAM_ASSIGN_OR_RETURN(std::string op_exit, F_Str(rec, 3));
      LTAM_ASSIGN_OR_RETURN(rule.op_exit, ParseTemporalOperator(op_exit));
      LTAM_ASSIGN_OR_RETURN(std::string op_subject, F_Str(rec, 4));
      LTAM_ASSIGN_OR_RETURN(rule.op_subject, subject_ops.Parse(op_subject));
      LTAM_ASSIGN_OR_RETURN(std::string op_location, F_Str(rec, 5));
      LTAM_ASSIGN_OR_RETURN(rule.op_location, location_ops.Parse(op_location));
      LTAM_ASSIGN_OR_RETURN(std::string expn, F_Str(rec, 6));
      LTAM_ASSIGN_OR_RETURN(rule.exp_n, CountExpr::Parse(expn));
      LTAM_ASSIGN_OR_RETURN(rule.label, F_Str(rec, 7));
      rule.id = static_cast<RuleId>(state.rules.size());
      state.rules.push_back(std::move(rule));
      continue;
    }
    if (rec.type == "move") {
      LTAM_RETURN_IF_ERROR(ApplyMoveRecord(rec, &state.movements));
      continue;
    }
    return Status::ParseError("unknown snapshot record type '" + rec.type +
                              "'");
  }
  return state;
}

Status SaveMovements(const MovementDatabase& movements,
                     const std::string& path) {
  LineFile file(path);
  if (!file.is_open()) {
    return Status::IOError("cannot open movement segment '" + path +
                           "' for write");
  }
  for (const MovementEvent& ev : movements.history()) RenderMove(ev, &file);
  return file.Finish("movement segment");
}

Result<MovementDatabase> LoadMovements(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open movement segment '" + path + "'");
  }
  MovementDatabase movements;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Result<Record> rec_or = DecodeRecord(line);
    if (!rec_or.ok()) {
      return rec_or.status().WithContext("movement segment line " +
                                         std::to_string(line_no));
    }
    if (rec_or->type != "move") {
      return Status::ParseError("movement segment line " +
                                std::to_string(line_no) +
                                " has unexpected record '" + rec_or->type +
                                "'");
    }
    Status applied = ApplyMoveRecord(*rec_or, &movements);
    if (!applied.ok()) {
      return applied.WithContext("movement segment line " +
                                 std::to_string(line_no));
    }
  }
  return movements;
}

}  // namespace ltam
