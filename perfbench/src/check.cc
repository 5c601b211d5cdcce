// Copyright 2026 The LTAM Authors.

#include "check.h"

#include <unordered_map>

#include "stats.h"

namespace ltam::perfbench {

std::vector<const std::vector<AccessEvent>*> AckedFramesInOrder(
    const LoadScenario& scenario, const AckedFrames& acked) {
  std::vector<const std::vector<AccessEvent>*> out;
  size_t rounds = 0;
  for (const auto& stream : scenario.streams) {
    rounds = std::max(rounds, stream.size());
  }
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t c = 0; c < scenario.streams.size(); ++c) {
      if (r < scenario.streams[c].size() && c < acked.size() &&
          r < acked[c].size() && acked[c][r]) {
        out.push_back(&scenario.streams[c][r]);
      }
    }
  }
  return out;
}

Result<Reference> ReplayReference(const LoadScenario& scenario,
                                  const AckedFrames& acked, uint32_t shards) {
  RuntimeOptions options;
  options.num_shards = shards;
  options.engine = scenario.engine;
  Reference ref;
  LTAM_ASSIGN_OR_RETURN(ref.runtime,
                        AccessRuntime::Open(scenario.initial, options));
  LTAM_RETURN_IF_ERROR(RegisterAndDeriveScriptedRules(ref.runtime.get()));
  ref.digests.resize(scenario.streams.size());
  for (size_t c = 0; c < scenario.streams.size(); ++c) {
    ref.digests[c].assign(scenario.streams[c].size(), 0);
  }
  size_t rounds = 0;
  for (const auto& stream : scenario.streams) {
    rounds = std::max(rounds, stream.size());
  }
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t c = 0; c < scenario.streams.size(); ++c) {
      if (r >= scenario.streams[c].size() || c >= acked.size() ||
          r >= acked[c].size() || !acked[c][r]) {
        continue;
      }
      const std::vector<AccessEvent>& frame = scenario.streams[c][r];
      LTAM_ASSIGN_OR_RETURN(BatchResult batch,
                            ref.runtime->ApplyBatch(frame));
      ref.digests[c][r] = DigestDecisions(kDigestSeed, batch.decisions);
      ref.events += frame.size();
    }
  }
  return ref;
}

Status CheckDigests(const AckedFrames& acked, const FrameDigests& served,
                    const FrameDigests& reference) {
  if (served.size() != reference.size() || acked.size() != served.size()) {
    return Status::Internal("digest check: connection count mismatch");
  }
  for (size_t c = 0; c < served.size(); ++c) {
    if (served[c].size() != reference[c].size()) {
      return Status::Internal("digest check: frame count mismatch on "
                              "connection " + std::to_string(c));
    }
    for (size_t f = 0; f < served[c].size(); ++f) {
      if (acked[c][f] && served[c][f] != reference[c][f]) {
        return Status::Internal(
            "decision digest mismatch: connection " + std::to_string(c) +
            " frame " + std::to_string(f) +
            " decided differently from the reference replay");
      }
    }
  }
  return Status::OK();
}

std::string RenderAnswer(const Result<QueryResult>& answer) {
  if (!answer.ok()) return "error: " + answer.status().ToString();
  std::string out;
  for (const std::string& c : answer->columns) out += c + "\t";
  out += "\n";
  for (const auto& row : answer->rows) {
    for (const std::string& v : row) out += v + "\t";
    out += "\n";
  }
  return out;
}

std::vector<std::string> Sweep(
    const std::vector<PoolQuery>& pool,
    const std::function<Result<QueryResult>(const std::string&)>& run) {
  std::vector<std::string> out;
  out.reserve(pool.size());
  for (const PoolQuery& q : pool) out.push_back(RenderAnswer(run(q.statement)));
  return out;
}

std::vector<std::string> SweepRuntime(const AccessRuntime& runtime,
                                      const std::vector<PoolQuery>& pool) {
  const QueryInterpreter interpreter(&runtime.query(), &runtime.graph(),
                                     &runtime.profiles(), &runtime.movements(),
                                     &runtime.auth_db());
  return Sweep(pool, [&interpreter](const std::string& statement) {
    return interpreter.Run(statement);
  });
}

Status CheckSweep(const std::vector<PoolQuery>& pool,
                  const std::vector<std::string>& served,
                  const std::vector<std::string>& reference,
                  const std::string& what) {
  if (served.size() != reference.size()) {
    return Status::Internal(what + ": answered " +
                            std::to_string(served.size()) + " of " +
                            std::to_string(reference.size()) + " statements");
  }
  for (size_t i = 0; i < served.size(); ++i) {
    if (served[i] != reference[i]) {
      return Status::Internal(what + ": statement " + std::to_string(i) +
                              " (" + pool[i].statement +
                              ") answered differently:\n--- served\n" +
                              served[i] + "--- reference\n" + reference[i]);
    }
  }
  return Status::OK();
}

std::vector<PoolQuery> TailProbe(const LoadScenario& scenario,
                                 const AckedFrames& acked,
                                 Chronon not_before) {
  std::unordered_map<SubjectId, Chronon> last;
  for (const auto* frame : AckedFramesInOrder(scenario, acked)) {
    for (const AccessEvent& e : *frame) last[e.subject] = e.time;
  }
  std::vector<PoolQuery> probe;
  for (size_t i = 0; i < scenario.subjects.size(); ++i) {
    auto it = last.find(scenario.subjects[i]);
    if (it == last.end() || it->second < not_before) continue;
    probe.push_back({QueryKind::kWhereWas,
                     "WHERE WAS u" + std::to_string(i) + " AT " +
                         std::to_string(it->second)});
  }
  return probe;
}

}  // namespace ltam::perfbench
