// paper_embedded: the §7.1 configuration in owner mode on one thread — no
// sessions, no server. 8000 cuboids, a 150-page buffer far smaller than the
// base, ⟨⟨volume, weight⟩⟩ with immediate rematerialization and the ObjDep
// notifier, update probability 0.2 over scale/rotate/translate against
// forward and backward queries (half each).
//
// Operations run in rounds of a fixed size drawn from the seed. Round 0
// starts from a cold buffer; its counters and simulated time depend on the
// seed alone, so they repeat exactly. Wall-clock metrics come from the
// rounds after it.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "base.h"
#include "query/executor.h"
#include "workload/program_version.h"
#include "workloads.h"

namespace perfbench {

using namespace gom;

namespace {

struct EmbeddedConfig {
  size_t cuboids = 8000;
  size_t buffer_pages = 150;  // 600 kB / 4 kB, as in §7
  size_t round_ops = 2000;
  int setups = 5;
  size_t probes = 2000;
  double update_probability = 0.2;
};

struct Embedded {
  Base base;
  std::unique_ptr<query::QueryExecutor> exec;
};

Result<std::unique_ptr<Embedded>> BuildEmbedded(const EmbeddedConfig& cfg,
                                                uint64_t seed) {
  auto e = std::make_unique<Embedded>();
  GmrManagerOptions gopts;
  gopts.remat = RematStrategy::kImmediate;
  e->base.env = std::make_unique<workload::Environment>(cfg.buffer_pages, gopts);
  GOMFM_RETURN_IF_ERROR(PopulateCuboidBase(&e->base, cfg.cuboids, seed));
  workload::Environment& env = *e->base.env;
  auto* notifier = env.InstallNotifier(workload::NotifyLevel::kObjDep);
  workload::ConfigureVersion(workload::ProgramVersion::kWithGmr, &env.mgr,
                             notifier);
  e->exec = std::make_unique<query::QueryExecutor>(&env.om, &env.interp,
                                                   &env.mgr, true);
  return e;
}

/// Runs rounds of the mix, checking every answer. Stored GMR rows are read
/// from row memory (no page touches), so checking an update does not
/// perturb the buffer, the counters or the simulated clock.
class Runner {
 public:
  Runner(Embedded* e, Oracle* o, const EmbeddedConfig& cfg, uint64_t seed,
         Accounting* acct, Tracer* tracer)
      : e_(e), o_(o), cfg_(cfg), rng_(seed * 0x2545F4914F6CDD1DULL + 11),
        acct_(acct), tracer_(tracer) {}

  /// Maps each cuboid to its ⟨⟨volume, weight⟩⟩ row. The timed phase
  /// inserts and removes no rows, so the rows stay where they are.
  std::string Init() {
    rows_.assign(o_->n_cuboids, nullptr);
    auto gmr = e_->base.env->mgr.Get(e_->base.cuboid_gmr);
    if (!gmr.ok()) return gmr.status().ToString();
    (*gmr)->ForEachRow([&](RowId, const Gmr::Row& row) {
      auto ref = row.args[0].AsRef();
      auto it = ref.ok() ? o_->index_of.find(ref->raw) : o_->index_of.end();
      if (it != o_->index_of.end()) rows_[it->second] = &row;
      return true;
    });
    for (const Gmr::Row* r : rows_) {
      if (r == nullptr) return "a cuboid has no GMR row";
    }
    return "";
  }

  /// One round; returns the problem or "".
  std::string Round(PhaseWork* w, double* busy_us, bool record) {
    for (size_t k = 0; k < cfg_.round_ops; ++k) {
      std::string problem = Op(w, busy_us, record);
      if (!problem.empty()) return problem;
    }
    return "";
  }

 private:
  std::string Op(PhaseWork* w, double* busy_us, bool record) {
    workload::Environment& env = *e_->base.env;
    uint64_t seq = NextSeq();
    ++w->ops;
    uint32_t root = tracer_->Begin("embedded.op", 0, seq);
    std::string problem;
    int cls;
    double t0 = 0, us = 0;
    if (rng_.UniformDouble(0, 1) < cfg_.update_probability) {
      cls = kUpdate;
      uint32_t i = static_cast<uint32_t>(rng_.UniformInt(0, o_->n_cuboids - 1));
      UpdateOp u = CuboidUpdate(e_->base, o_, &rng_, i, 0.5, 1.5, &problem);
      o_->shadow->Issue(i, u.predicted, seq);
      Status st = Status::Ok();
      {
        ScopedSpan s(tracer_, "funclang.invoke_update", root, seq);
        t0 = NowUs();
        st = env.interp.Invoke(u.op, std::move(u.args)).status();
        us = NowUs() - t0;
      }
      o_->shadow->Complete(i, seq);
      o_->shadow->Trim(i, seq);
      ++w->updates;
      const Gmr::Row& row = *rows_[i];
      if (!st.ok()) {
        acct_->Error(cls);
        tracer_->End(root);
        return "update failed: " + st.ToString();
      }
      if (problem.empty() &&
          (!row.valid[0] || !row.valid[1] ||
           !Near(*row.results[0].AsDouble(), u.predicted[0]) ||
           !Near(*row.results[1].AsDouble(), u.predicted[1]))) {
        problem = "row of cuboid " + std::to_string(i) +
                  " not rematerialized to the updated volume and weight";
      }
    } else if (rng_.UniformDouble(0, 1) < 0.5) {
      cls = kBackward;
      double r = rng_.UniformDouble(0, o_->max_volume * 0.5);
      double eps = o_->max_volume * 0.002;
      query::BackwardQuery q;
      q.range_type = e_->base.geo.cuboid;
      q.function = e_->base.geo.volume;
      q.lo = r - eps;
      q.hi = r + eps;
      q.lo_inclusive = false;
      q.hi_inclusive = false;
      Result<std::vector<Oid>> hits = Status::Internal("unset");
      {
        ScopedSpan s(tracer_, "query.run_backward", root, seq);
        t0 = NowUs();
        hits = e_->exec->RunBackward(q);
        us = NowUs() - t0;
      }
      if (!hits.ok()) {
        acct_->Error(cls);
        tracer_->End(root);
        return "backward query failed: " + hits.status().ToString();
      }
      std::vector<uint32_t> idx;
      for (Oid c : *hits) {
        auto it = o_->index_of.find(c.raw);
        idx.push_back(it == o_->index_of.end() ? UINT32_MAX : it->second);
      }
      problem = o_->shadow->CheckRange(idx, q.lo, q.hi, seq, seq);
      w->backward_rows += static_cast<double>(hits->size());
      ++w->backward_answers;
    } else {
      cls = kForward;
      uint32_t i = static_cast<uint32_t>(rng_.UniformInt(0, o_->n_cuboids - 1));
      int col = static_cast<int>(rng_.UniformInt(0, 1));
      query::ForwardQuery q{col == 0 ? e_->base.geo.volume : e_->base.geo.weight,
                            {Value::Ref(e_->base.cuboids[i])}};
      Result<Value> v = Status::Internal("unset");
      {
        ScopedSpan s(tracer_, "query.run_forward", root, seq);
        t0 = NowUs();
        v = e_->exec->RunForward(q);
        us = NowUs() - t0;
      }
      if (!v.ok()) {
        acct_->Error(cls);
        tracer_->End(root);
        return "forward query failed: " + v.status().ToString();
      }
      if (!v->is_numeric() ||
          !o_->shadow->Observable(i, col, *v->AsDouble(), seq, seq)) {
        problem = "forward column " + std::to_string(col) + " of cuboid " +
                  std::to_string(i) + " disagrees with the oracle";
      }
    }
    tracer_->End(root);
    *busy_us += us;
    if (!problem.empty()) {
      acct_->Mismatch(cls);
      return problem;
    }
    acct_->Ok(cls, us, record);
    return "";
  }

  Embedded* e_;
  Oracle* o_;
  const EmbeddedConfig& cfg_;
  Rng rng_;
  Accounting* acct_;
  Tracer* tracer_;
  std::vector<const Gmr::Row*> rows_;
};

}  // namespace

int RunEmbedded(const Options& opts) {
  EmbeddedConfig cfg;
  if (opts.quick) {
    cfg.cuboids = 600;
    cfg.buffer_pages = 30;
    cfg.round_ops = 200;
    cfg.setups = 1;
    cfg.probes = 200;
  }
  HostProbe host0 = HostProbe::Take();
  Metrics m;
  Accounting acct;
  Tracer tracer(false);

  std::vector<double> setup_times;
  std::unique_ptr<Embedded> e;
  int setups = opts.trace ? 1 : cfg.setups;
  for (int k = 0; k < setups; ++k) {
    e.reset();
    double t0 = NowUs();
    auto built = BuildEmbedded(cfg, opts.seed);
    setup_times.push_back((NowUs() - t0) / 1e6);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 2;
    }
    e = std::move(*built);
  }
  workload::Environment& env = *e->base.env;
  Oracle oracle;
  Status st = BuildOracle(e->base, &oracle);
  std::string problem =
      st.ok() ? CheckStoredRows(e->base, oracle) : "oracle read: " + st.ToString();
  Runner runner(e.get(), &oracle, cfg, opts.seed, &acct, &tracer);
  if (problem.empty()) problem = runner.Init();

  // Round 0 from a cold buffer, with every counter and the simulated clock
  // zeroed: its figures depend on the seed alone.
  if (problem.empty()) {
    Status evicted = env.pool.EvictAll();
    if (!evicted.ok()) problem = "evict: " + evicted.ToString();
  }
  env.pool.ResetCounters();
  env.disk.ResetCounters();
  env.clock.Reset();
  env.mgr.ResetStats();
  tracer.set_enabled(opts.trace);
  Counters c0 = Counters::Read(env);
  PhaseWork round0;
  double busy0 = 0;
  if (problem.empty()) problem = runner.Round(&round0, &busy0, false);
  Counters c1 = Counters::Read(env);
  m.Set("sim_us_per_op", (c1.sim_s - c0.sim_s) * 1e6 / round0.ops, "us");
  m.Set("round0_ops", round0.ops, "count");

  if (!opts.trace) {
    // Throughput is operations per second of program time (the benchmark's
    // own checks between operations are not counted), the median over
    // rounds; latency segments span three rounds, so a segment holds the
    // 1000 samples a p99 needs.
    constexpr size_t kRoundsPerSegment = 3;
    std::vector<double> rates;
    double deadline = NowUs() + opts.seconds * 1e6;
    while (problem.empty() && NowUs() < deadline) {
      PhaseWork round;
      double busy_us = 0;
      if (rates.size() % kRoundsPerSegment == 0) acct.NewSegment();
      problem = runner.Round(&round, &busy_us, true);
      rates.push_back(round.ops / (busy_us / 1e6));
    }
    m.Set("throughput_ops_s", Median(rates), "1/s");
    m.Set("setup_s", Median(setup_times), "s");
    acct.ReportLatency(&m);
  } else {
    ReportCounters(c0, c1, round0, &m);
    m.Set("query.run_forward_us", tracer.MedianUs("query.run_forward"), "us");
    m.Set("query.run_backward_us", tracer.MedianUs("query.run_backward"), "us");
    m.Set("funclang.invoke_update_us", tracer.MedianUs("funclang.invoke_update"),
          "us");
    // Alternate untraced and traced rounds: the ratio of their program
    // time per operation is the tracing overhead.
    PhaseWork plain, traced;
    double plain_us = 0, traced_us = 0;
    double deadline = NowUs() + opts.seconds * 1e6 * 0.8;
    while (problem.empty() && NowUs() < deadline) {
      tracer.set_enabled(false);
      problem = runner.Round(&plain, &plain_us, false);
      tracer.set_enabled(true);
      if (problem.empty()) problem = runner.Round(&traced, &traced_us, false);
    }
    m.Set("trace.overhead_ratio",
          plain_us > 0 && traced.ops > 0
              ? (traced_us / traced.ops) / (plain_us / plain.ops)
              : 0.0,
          "ratio");
    if (problem.empty()) {
      problem = OwnerProbes(e->base, oracle, opts.seed, cfg.probes, &tracer, &m);
    }
    WriteSpans(opts, tracer, &m);
  }
  if (problem.empty()) problem = FinalCheck(e->base, oracle);
  ReportHealth(host0, &m);
  PrintResult(opts, acct, m, problem);
  return problem.empty() ? 0 : 1;
}

}  // namespace perfbench
