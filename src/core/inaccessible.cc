// Copyright 2026 The LTAM Authors.
// Implementation of Algorithm 1 (FindInaccessible) and the Lemma-1
// hierarchical pruning.

#include "core/inaccessible.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "util/string_util.h"

namespace ltam {

namespace {

/// Working state for the propagation.
struct Work {
  std::vector<LocationId> analyzed;                 // Sorted primitive ids.
  std::unordered_map<LocationId, size_t> index;     // id -> position.
  std::vector<std::vector<size_t>> adj;             // Scope-restricted.
  std::vector<IntervalSet> grant;                   // T^g.
  std::vector<IntervalSet> departure;               // T^d.
  std::vector<char> flag;
  std::vector<char> is_entry_seed;
  // Authorizations per analyzed location for the subject, as
  // (entry, exit) duration pairs.
  std::vector<std::vector<std::pair<TimeInterval, TimeInterval>>> auths;
};

Result<Work> BuildWork(const MultilevelLocationGraph& graph,
                       LocationId scope, SubjectId subject,
                       const AuthorizationDatabase& auth_db) {
  if (!graph.Exists(scope) || !graph.location(scope).IsComposite()) {
    return Status::InvalidArgument(
        "analysis scope must be a composite location");
  }
  Work w;
  w.analyzed = graph.PrimitivesWithin(scope);
  std::sort(w.analyzed.begin(), w.analyzed.end());
  for (size_t i = 0; i < w.analyzed.size(); ++i) {
    w.index.emplace(w.analyzed[i], i);
  }
  const size_t n = w.analyzed.size();
  w.adj.resize(n);
  w.grant.resize(n);
  w.departure.resize(n);
  w.flag.assign(n, 0);
  w.is_entry_seed.assign(n, 0);
  w.auths.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // Scope-restricted flattened adjacency, preserving neighbor order.
    for (LocationId nb : graph.EffectiveNeighbors(w.analyzed[i])) {
      auto it = w.index.find(nb);
      if (it != w.index.end()) w.adj[i].push_back(it->second);
    }
    for (AuthId id : auth_db.ForSubjectLocation(subject, w.analyzed[i])) {
      const LocationTemporalAuthorization& a = auth_db.record(id).auth;
      w.auths[i].emplace_back(a.entry_duration(), a.exit_duration());
    }
  }
  for (LocationId e : graph.EntryPrimitives(scope)) {
    auto it = w.index.find(e);
    if (it != w.index.end()) w.is_entry_seed[it->second] = 1;
  }
  return w;
}

void CaptureRow(const Work& w, const std::string& label,
                std::vector<TraceRow>* trace) {
  if (trace == nullptr) return;
  TraceRow row;
  row.label = label;
  row.states.reserve(w.analyzed.size());
  for (size_t i = 0; i < w.analyzed.size(); ++i) {
    row.states.push_back(LocationTimeState{w.analyzed[i], w.flag[i] != 0,
                                           w.grant[i], w.departure[i]});
  }
  trace->push_back(std::move(row));
}

/// Algorithm 1 lines 2-13: seed every entry location from its
/// authorizations, then flag the neighbors of entries with a non-null
/// departure time. Emits one trace row per entry processed.
void Initiate(Work* w, const MultilevelLocationGraph& graph,
              std::vector<TraceRow>* trace, std::deque<size_t>* queue) {
  for (size_t i = 0; i < w->analyzed.size(); ++i) {
    if (!w->is_entry_seed[i]) continue;
    for (const auto& [entry, exit] : w->auths[i]) {
      w->grant[i].Add(entry);
      w->departure[i].Add(exit);
    }
    w->flag[i] = 0;  // "their admissible time will not change further"
    if (!w->departure[i].empty()) {
      for (size_t nb : w->adj[i]) {
        if (!w->flag[nb]) {
          w->flag[nb] = 1;
          if (queue != nullptr) queue->push_back(nb);
        }
      }
    }
    CaptureRow(*w, "Update " + graph.location(w->analyzed[i]).name, trace);
  }
}

/// Algorithm 1 lines 16-27: recompute one location's T^g/T^d from its
/// neighbors' departure times. Returns true iff T^d changed.
bool UpdateLocation(Work* w, size_t i) {
  IntervalSet old_departure = w->departure[i];
  // T := union of the departure times of all neighbors (line 18).
  IntervalSet t;
  for (size_t nb : w->adj[i]) t = t.Union(w->departure[nb]);
  // For each window and each authorization: grant contribution
  // [max(tp,tis), min(tq,tie)], departure contribution [max(tp,tos), toe]
  // (lines 19-26).
  for (const TimeInterval& window : t.intervals()) {
    for (const auto& [entry, exit] : w->auths[i]) {
      Chronon gs = std::max(window.start(), entry.start());
      Chronon ge = std::min(window.end(), entry.end());
      if (gs > ge) continue;
      w->grant[i].Add(TimeInterval(gs, ge));
      Chronon ds = std::max(window.start(), exit.start());
      if (ds <= exit.end()) {
        w->departure[i].Add(TimeInterval(ds, exit.end()));
      }
    }
  }
  return !(w->departure[i] == old_departure);
}

InaccessibleResult Finish(const Work& w, const InaccessibleOptions& options,
                          size_t updates, std::vector<TraceRow> trace) {
  InaccessibleResult out;
  out.analyzed = w.analyzed;
  out.updates = updates;
  out.trace = std::move(trace);
  for (size_t i = 0; i < w.analyzed.size(); ++i) {
    out.final_states.push_back(LocationTimeState{
        w.analyzed[i], w.flag[i] != 0, w.grant[i], w.departure[i]});
    bool inaccessible = w.grant[i].empty();
    // Section 6 textual remark (optional strict mode): an entry location
    // with no authorized exit is unusable, hence inaccessible.
    if (!inaccessible && options.strict_entry_exit && w.is_entry_seed[i] &&
        w.departure[i].empty()) {
      inaccessible = true;
    }
    if (inaccessible) out.inaccessible.push_back(w.analyzed[i]);
  }
  return out;
}

}  // namespace

bool InaccessibleResult::IsInaccessible(LocationId l) const {
  return std::binary_search(inaccessible.begin(), inaccessible.end(), l);
}

std::string InaccessibleResult::TraceToString(
    const MultilevelLocationGraph& graph) const {
  std::string out;
  // Header.
  out += StrFormat("%-12s", "Step");
  for (LocationId l : analyzed) {
    out += StrFormat(" | %-36s", graph.location(l).name.c_str());
  }
  out += "\n";
  out += StrFormat("%-12s", "");
  for (size_t i = 0; i < analyzed.size(); ++i) {
    out += StrFormat(" | %-4s %-15s %-15s", "flag", "T^g", "T^d");
  }
  out += "\n";
  auto set_str = [](const IntervalSet& s) {
    return s.empty() ? std::string("phi") : s.ToString();
  };
  for (const TraceRow& row : trace) {
    out += StrFormat("%-12s", row.label.c_str());
    for (const LocationTimeState& st : row.states) {
      out += StrFormat(" | %-4s %-15s %-15s", st.flag ? "T" : "F",
                       set_str(st.grant).c_str(),
                       set_str(st.departure).c_str());
    }
    out += "\n";
  }
  return out;
}

Result<InaccessibleResult> FindInaccessible(
    const MultilevelLocationGraph& graph, LocationId scope,
    SubjectId subject, const AuthorizationDatabase& auth_db,
    const InaccessibleOptions& options) {
  LTAM_ASSIGN_OR_RETURN(Work w, BuildWork(graph, scope, subject, auth_db));
  std::vector<TraceRow> trace;
  std::vector<TraceRow>* trace_ptr = options.capture_trace ? &trace : nullptr;
  size_t updates = 0;

  CaptureRow(w, "Initiation", trace_ptr);

  if (options.algorithm == InaccessibleAlgorithm::kWorklist) {
    std::deque<size_t> queue;
    Initiate(&w, graph, trace_ptr, &queue);
    while (!queue.empty()) {
      size_t i = queue.front();
      queue.pop_front();
      w.flag[i] = 0;
      bool changed = UpdateLocation(&w, i);
      ++updates;
      if (changed) {
        for (size_t nb : w.adj[i]) {
          if (!w.flag[nb]) {
            w.flag[nb] = 1;
            queue.push_back(nb);
          }
        }
      }
      CaptureRow(w, "Update " + graph.location(w.analyzed[i]).name,
                 trace_ptr);
    }
  } else {
    // Faithful sweep: while any flag is set, process every flagged
    // location (ascending id), setting neighbor flags on departure-time
    // change; newly flagged locations are handled in the next sweep.
    Initiate(&w, graph, trace_ptr, nullptr);
    while (true) {
      std::vector<size_t> flagged;
      for (size_t i = 0; i < w.flag.size(); ++i) {
        if (w.flag[i]) flagged.push_back(i);
      }
      if (flagged.empty()) break;
      for (size_t i : flagged) {
        w.flag[i] = 0;
        bool changed = UpdateLocation(&w, i);
        ++updates;
        if (changed) {
          for (size_t nb : w.adj[i]) w.flag[nb] = 1;
        }
        CaptureRow(w, "Update " + graph.location(w.analyzed[i]).name,
                   trace_ptr);
      }
    }
  }
  return Finish(w, options, updates, std::move(trace));
}

Result<std::vector<LocationId>> HierarchicalInaccessiblePrune(
    const MultilevelLocationGraph& graph, SubjectId subject,
    const AuthorizationDatabase& auth_db) {
  std::unordered_set<LocationId> pruned;
  for (LocationId c : graph.Composites()) {
    // Lemma 1: a location inaccessible considering only the entry
    // locations of its own composite is inaccessible from every entry of
    // the containing multilevel graph.
    LTAM_ASSIGN_OR_RETURN(
        InaccessibleResult local,
        FindInaccessible(graph, c, subject, auth_db, InaccessibleOptions{}));
    pruned.insert(local.inaccessible.begin(), local.inaccessible.end());
  }
  std::vector<LocationId> out(pruned.begin(), pruned.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ltam
