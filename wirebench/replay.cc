#include "replay.h"

#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/bounded_eval.h"
#include "eval/answer_set.h"
#include "exec/compiler.h"
#include "exec/exec_context.h"
#include "exec/vm.h"
#include "io/shell.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "relational/index.h"
#include "serve/message.h"
#include "serve/server.h"
#include "util/strings.h"

namespace wirebench {

namespace {

namespace obs = scalein::obs;
namespace serve = scalein::serve;
using scalein::AnswerSet;
using scalein::Shell;

std::unique_ptr<Shell> LoadShell(const std::string& catalog) {
  auto shell = std::make_unique<Shell>();
  std::ifstream in(catalog);
  std::string line;
  while (std::getline(in, line)) {
    scalein::Result<std::string> out = shell->Execute(line);
    if (!out.ok()) {
      throw std::runtime_error("catalog: " + out.status().ToString());
    }
  }
  if (scalein::Status s = shell->PrepareServe(); !s.ok()) {
    throw std::runtime_error("prepare: " + s.ToString());
  }
  return shell;
}

/// Total span time per span name among the events `tracer` holds.
std::map<std::string, double> SpanNs(const obs::Tracer& tracer) {
  std::map<std::string, double> out;
  for (const obs::TraceEvent& e : tracer.events()) {
    out[e.name] += static_cast<double>(e.duration_ns);
  }
  return out;
}

/// What the leaf probes on shell B measured for one request, in ns.
struct LeafTimes {
  double plan = 0;     // Shell::PlanForServe (parse + analysis cache)
  double parse = 0;    // ParseFoQuery of the same text
  double analyze = 0;  // the program's controllability.analyze span (misses)
  double lookup = 0;   // CompiledPlanSet::GetOrCompilePlain
  bool compiled_now = false;
  double render = 0;   // AnswerSetToString, capped as the server caps it
  double record = 0;   // Shell::RecordServeVerdict: seal, aggregator, journal
};

/// Calls the leaf functions one request passes through, each timed, on a
/// shell that sees the same request history as the server's shell.
/// `tracer` collects the spans the program emits while planning.
std::string ProbeLeaves(Shell* shell, std::string_view rest,
                        uint64_t expected, obs::Tracer* tracer,
                        LeafTimes* t) {
  tracer->Clear();
  obs::Tracer::InstallGlobal(tracer);
  uint64_t t0 = NowNs();
  scalein::Result<scalein::ServePlan> planned = shell->PlanForServe(rest);
  t->plan = static_cast<double>(NowNs() - t0);
  obs::Tracer::InstallGlobal(nullptr);
  if (!planned.ok()) return "plan: " + planned.status().ToString();
  const scalein::ServePlan& plan = *planned;
  t->analyze = SpanNs(*tracer)["controllability.analyze"];

  t0 = NowNs();
  scalein::Result<scalein::FoQuery> parsed =
      scalein::ParseFoQuery(plan.query_text, &shell->schema());
  t->parse = static_cast<double>(NowNs() - t0);
  if (!parsed.ok()) return "parse: " + parsed.status().ToString();

  scalein::VarSet param_vars;
  for (const auto& [v, val] : plan.params) param_vars.insert(v);
  std::shared_ptr<const scalein::exec::CompiledProgram> program;
  if (plan.compiled != nullptr) {
    const uint64_t before = plan.compiled->compiles();
    std::string why;
    t0 = NowNs();
    program = plan.compiled->GetOrCompilePlain(
        scalein::exec::CompiledPlanSet::Mode::kAuto, plan.query,
        plan.analysis, param_vars, &why);
    t->lookup = static_cast<double>(NowNs() - t0);
    t->compiled_now = plan.compiled->compiles() != before;
  }

  // The answers to render and the certificate to record come from an
  // untimed evaluation of the same plan. Evaluators take a mutable database
  // only to build indexes on demand; PrepareServe built them all.
  scalein::Database* db = const_cast<scalein::Database*>(shell->db());
  scalein::BoundedEvalStats stats;
  t0 = NowNs();
  scalein::Result<scalein::exec::Degraded<AnswerSet>> evaled = [&] {
    if (program != nullptr) {
      scalein::exec::CompiledEvaluator vm(db);
      return vm.EvaluateDegraded(*program, plan.params, &stats);
    }
    scalein::BoundedEvaluator evaluator(db);
    return evaluator.EvaluateDegraded(plan.query, *plan.analysis, plan.params,
                                      &stats);
  }();
  const double elapsed_ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (!evaled.ok()) return "evaluate: " + evaled.status().ToString();
  if (evaled->value.size() != expected) {
    return scalein::StrFormat("evaluate: %zu answers, expected %llu",
                              evaled->value.size(),
                              static_cast<unsigned long long>(expected));
  }

  t0 = NowNs();
  const std::string rendered = scalein::AnswerSetToString(evaled->value, 50);
  t->render = static_cast<double>(NowNs() - t0);
  if (rendered.empty()) return "render: empty";

  obs::AccessCertificate cert;
  cert.query_fingerprint = plan.fingerprint;
  cert.query_text = plan.query_text;
  cert.static_bound = stats.static_bound;
  cert.actual_fetches = stats.base_tuples_fetched;
  cert.index_lookups = stats.index_lookups;
  t0 = NowNs();
  const std::string warnings =
      shell->RecordServeVerdict(std::move(cert), elapsed_ms);
  t->record = static_cast<double>(NowNs() - t0);
  if (!warnings.empty()) return "record: " + warnings;
  return std::string();
}

double Us(double ns_total, size_t n) {
  return n == 0 ? 0.0 : ns_total / static_cast<double>(n) / 1e3;
}

/// Raw HashIndex::Lookup vs exec::MeteredIndexLookup on the same keys of
/// the friend(id1) access path; medians of alternating passes, ns/probe.
void ProbeFloor(const Shell& shell, const std::vector<uint32_t>& probe_keys,
                Metrics* out, Tally* tally) {
  const scalein::Database& db = *shell.db();
  const scalein::Relation& rel = db.relation("friend");
  const std::vector<size_t> positions = {0};
  const scalein::HashIndex* index = rel.FindIndex(positions);
  if (index == nullptr || probe_keys.empty()) {
    tally->Broken("relational: no friend(id1) index to probe");
    return;
  }
  std::vector<scalein::Tuple> keys;
  keys.reserve(probe_keys.size());
  for (uint32_t k : probe_keys) {
    keys.push_back(scalein::Tuple{scalein::Value::Int(k)});
  }
  const size_t reps = std::max<size_t>(1, 200000 / keys.size());
  const double probes = static_cast<double>(reps * keys.size());
  std::vector<double> raw_ns, metered_ns;
  uint64_t raw_rows = 0, metered_rows = 0;
  for (int pass = 0; pass < 5; ++pass) {
    uint64_t t0 = NowNs();
    for (size_t r = 0; r < reps; ++r) {
      for (const scalein::Tuple& key : keys) {
        const std::vector<uint32_t>* rows = index->Lookup(key);
        raw_rows += rows == nullptr ? 0 : rows->size();
      }
    }
    raw_ns.push_back(static_cast<double>(NowNs() - t0) / probes);
    scalein::exec::ExecContext ctx(&db);
    t0 = NowNs();
    for (size_t r = 0; r < reps; ++r) {
      for (const scalein::Tuple& key : keys) {
        const std::vector<uint32_t>* rows = scalein::exec::MeteredIndexLookup(
            &ctx, "friend", rel, positions, key);
        metered_rows += rows == nullptr ? 0 : rows->size();
      }
    }
    metered_ns.push_back(static_cast<double>(NowNs() - t0) / probes);
  }
  if (raw_rows != metered_rows) {
    tally->Broken("relational: raw and metered probes disagree");
  }
  const double raw = Median(raw_ns);
  const double metered = Median(metered_ns);
  out->Set("relational.raw_probe_ns", raw, "ns");
  out->Set("relational.metered_probe_ns", metered, "ns");
  out->Set("relational.probe_overhead_x", raw > 0 ? metered / raw : 0.0, "x");
}

}  // namespace

std::vector<double> AccessLogField(const std::string& path,
                                   const std::string& key) {
  std::vector<double> out;
  std::ifstream in(path);
  const std::string needle = "\"" + key + "\":";
  std::string line;
  while (std::getline(in, line)) {
    const size_t at = line.find(needle);
    if (at != std::string::npos) {
      out.push_back(std::strtod(line.c_str() + at + needle.size(), nullptr));
    }
  }
  return out;
}

void RunTracedReplay(const std::string& catalog,
                     const std::vector<Request>& stream,
                     const std::vector<uint32_t>& probe_keys,
                     bool check_attribution, Metrics* out, Tally* tally) {
  std::unique_ptr<Shell> shell_a = LoadShell(catalog);
  std::unique_ptr<Shell> shell_b = LoadShell(catalog);
  serve::Server::Options options;
  // As the wire rounds: a budget no run exhausts, everything else default.
  options.sla.session_fetch_budget = 1000000000000000ULL;
  serve::Server server(shell_a.get(), options);
  if (scalein::Status s = server.Start(); !s.ok()) {
    throw std::runtime_error("in-process server: " + s.ToString());
  }
  if (!server.HandleLine("a", "hello").ok()) {
    throw std::runtime_error("in-process server refused hello");
  }

  obs::Tracer tracer;
  // Sums over the traced requests (A's spans, B's probes) and A's request
  // time with and without the tracer installed.
  double handle_traced = 0, handle_plain = 0;
  size_t n_traced = 0, n_plain = 0;
  std::map<std::string, double> span_ns;
  LeafTimes leaf_sum;
  double parse_all = 0, plan_all = 0, lookup_all = 0, render_all = 0,
         record_all = 0, frame_ns = 0;
  std::vector<double> analyze_ns, compile_ns, exec_spans;
  size_t served = 0;

  for (size_t i = 0; i < stream.size(); ++i) {
    const Request& req = stream[i];
    const std::string_view rest = std::string_view(req.line).substr(5);
    // Every other request runs with the tracer installed; the rest price it.
    const bool traced = i % 2 == 0;
    std::string error;
    std::string response;
    double handle_ns = 0;
    std::map<std::string, double> spans;

    // A: the whole in-process request, as the server handles a wire line.
    auto run_a = [&] {
      tracer.Clear();
      obs::Tracer::InstallGlobal(traced ? &tracer : nullptr);
      const uint64_t t0 = NowNs();
      scalein::Result<std::string> a = server.HandleLine("a", req.line);
      handle_ns = static_cast<double>(NowNs() - t0);
      obs::Tracer::InstallGlobal(nullptr);
      if (!a.ok()) {
        error = "in-process HandleLine: " + a.status().ToString();
        return;
      }
      response = *a;
      const EvalReply reply = ParseEvalReply(response);
      if (!reply.admitted || reply.partial ||
          reply.answers != static_cast<int64_t>(req.expected)) {
        error = "in-process HandleLine: " +
                response.substr(0, response.find('\n'));
      }
      if (traced) spans = SpanNs(tracer);
    };
    // B: the leaf calls of the same request, off the server's path.
    LeafTimes leaf;
    auto run_b = [&] {
      std::string why =
          ProbeLeaves(shell_b.get(), rest, req.expected, &tracer, &leaf);
      if (!why.empty()) error = "leaf probe: " + why;
    };
    // Alternate who goes first, so neither always runs on caches the other
    // just filled; traced requests see both orders.
    if ((i / 2) % 2 == 0) {
      run_a();
      run_b();
    } else {
      run_b();
      run_a();
    }
    if (!error.empty()) {
      tally->Fail(error);
      continue;
    }
    const uint64_t t0 = NowNs();
    const std::string frame = serve::EncodeFrame(true, response);
    serve::FrameDecoder decoder;
    decoder.Feed(frame);
    bool frame_ok = false;
    std::string payload;
    const bool decoded = decoder.Next(&frame_ok, &payload);
    frame_ns += static_cast<double>(NowNs() - t0);
    if (!decoded || !frame_ok || payload != response) {
      tally->Fail("frame roundtrip");
      continue;
    }
    tally->Ok();
    ++served;

    parse_all += leaf.parse;
    plan_all += leaf.plan;
    lookup_all += leaf.lookup;
    render_all += leaf.render;
    record_all += leaf.record;
    if (leaf.analyze > 0) analyze_ns.push_back(leaf.analyze);
    if (leaf.compiled_now) compile_ns.push_back(leaf.lookup);
    if (traced) {
      handle_traced += handle_ns;
      ++n_traced;
      for (const auto& [name, ns] : spans) span_ns[name] += ns;
      exec_spans.push_back(spans["serve.exec"]);
      leaf_sum.plan += leaf.plan;
      leaf_sum.lookup += leaf.lookup;
      leaf_sum.render += leaf.render;
      leaf_sum.record += leaf.record;
    } else {
      handle_plain += handle_ns;
      ++n_plain;
    }
  }

  // The server's own stamps: time in HandleLine outside its serve.request
  // span (dispatch, SLO histograms, lifecycle events), the admission and
  // serialize phases, and the evaluator's span inside serve.exec.
  const double bookkeeping_ns = handle_traced - span_ns["serve.request"];
  const double covered = leaf_sum.plan + span_ns["serve.admission"] +
                         leaf_sum.lookup + span_ns["bounded.evaluate_degraded"] +
                         leaf_sum.render + leaf_sum.record +
                         span_ns["serve.serialize"] + bookkeeping_ns;
  const double unattributed =
      handle_traced > 0 ? 1.0 - covered / handle_traced : 1.0;
  if (check_attribution && (unattributed > 0.10 || unattributed < -0.10)) {
    tally->Broken(scalein::StrFormat(
        "attribution: layers sum to %.1f%% of the in-process request time",
        100.0 * (1.0 - unattributed)));
  }
  // obs.drift_x: EvalForServe time (the serve.exec span) over the last
  // tenth of the traced requests vs the first tenth.
  double drift = 0;
  if (exec_spans.size() >= 20) {
    const size_t tenth = exec_spans.size() / 10;
    const std::vector<double> first(exec_spans.begin(),
                                    exec_spans.begin() + tenth);
    const std::vector<double> last(exec_spans.end() - tenth, exec_spans.end());
    drift = Median(first) > 0 ? Median(last) / Median(first) : 0.0;
  }
  const scalein::AnalysisCacheStats cache = shell_a->analysis_cache().stats();
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  const obs::Counter* compiled_hits =
      shell_a->metrics().FindCounter("exec.compiled_hits");

  out->Set("serve.handle_us", Us(handle_plain, n_plain), "us");
  out->Set("serve.admission_ns", Us(span_ns["serve.admission"], n_traced) * 1e3,
           "ns");
  out->Set("serve.frame_ns", Us(frame_ns, served) * 1e3, "ns");
  out->Set("serve.bookkeeping_us",
           Us(bookkeeping_ns + span_ns["serve.serialize"], n_traced), "us");
  out->Set("query.parse_us", Us(parse_all, served), "us");
  out->Set("core.plan_us", Us(plan_all - parse_all, served), "us");
  out->Set("core.analyze_us", Mean(analyze_ns) / 1e3, "us");
  out->Set("core.cache_hit_rate",
           lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0,
           "frac");
  out->Set("exec.lookup_us", Us(lookup_all, served), "us");
  out->Set("exec.eval_us", Us(span_ns["bounded.evaluate_degraded"], n_traced),
           "us");
  out->Set("exec.compiled_frac",
           served > 0 && compiled_hits != nullptr
               ? static_cast<double>(compiled_hits->value()) / served
               : 0,
           "frac");
  out->Set("exec.compile_us", Mean(compile_ns) / 1e3, "us");
  out->Set("exec.render_us", Us(render_all, served), "us");
  out->Set("obs.record_us", Us(record_all, served), "us");
  out->Set("obs.drift_x", drift, "x");
  out->Set("trace.unattributed_frac", unattributed, "frac");
  out->Set("trace.overhead_frac",
           handle_plain > 0 && n_traced > 0
               ? Us(handle_traced, n_traced) / Us(handle_plain, n_plain) - 1.0
               : 0.0,
           "frac");
  ProbeFloor(*shell_b, probe_keys, out, tally);
}

}  // namespace wirebench
