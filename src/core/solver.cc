#include "core/solver.h"

#include <algorithm>
#include <cctype>
#include <vector>

#include "core/basic_framework.h"
#include "core/gc_solver.h"
#include "core/lightweight.h"
#include "core/opt_solver.h"
#include "graph/preprocess.h"

namespace dkc {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kHG: return "HG";
    case Method::kGC: return "GC";
    case Method::kL: return "L";
    case Method::kLP: return "LP";
    case Method::kOPT: return "OPT";
  }
  return "?";
}

StatusOr<Method> ParseMethod(const std::string& name) {
  std::string upper(name);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (upper == "HG") return Method::kHG;
  if (upper == "GC") return Method::kGC;
  if (upper == "L") return Method::kL;
  if (upper == "LP") return Method::kLP;
  if (upper == "OPT") return Method::kOPT;
  return Status::NotFound("unknown method '" + name +
                          "' (expected HG, GC, L, LP or OPT)");
}

namespace {

// One method dispatch on one concrete graph, optionally with a supplied
// orientation (the preprocessing pipeline's restricted degeneracy order).
StatusOr<SolveResult> Dispatch(const Graph& g, const SolverOptions& options,
                               const Ordering* orientation) {
  switch (options.method) {
    case Method::kHG: {
      BasicOptions basic;
      basic.k = options.k;
      basic.orientation = orientation;
      basic.budget = options.budget;
      return SolveBasic(g, basic);
    }
    case Method::kGC: {
      GcOptions gc;
      gc.k = options.k;
      gc.orientation = orientation;
      gc.budget = options.budget;
      gc.pool = options.pool;
      return SolveGc(g, gc);
    }
    case Method::kL:
    case Method::kLP: {
      LightweightOptions light;
      light.k = options.k;
      light.enable_score_pruning = options.method == Method::kLP;
      light.orientation = orientation;
      light.budget = options.budget;
      light.pool = options.pool;
      return SolveLightweight(g, light);
    }
    case Method::kOPT: {
      OptOptions opt;
      opt.k = options.k;
      opt.orientation = orientation;
      opt.budget = options.budget;  // carries max_branch_nodes (exact MIS)
      opt.pool = options.pool;
      return SolveOpt(g, opt);
    }
  }
  return Status::InvalidArgument("unknown method");
}

}  // namespace

StatusOr<SolveResult> Solve(const Graph& g, const SolverOptions& options) {
  if (!options.preprocess || options.k < 3) {
    // k < 3 falls through so the per-method validation reports the error.
    return Dispatch(g, options, nullptr);
  }
  const PreprocessResult pre = PreprocessForKCliques(g, options.k);

  if (pre.unchanged()) {
    // Nothing peeled: solve the input directly (pre.orientation is exactly
    // the order the solver would compute, so hand it over).
    auto solved = Dispatch(g, options, &pre.orientation);
    if (!solved.ok()) return solved.status();
    solved->stats.init_ms += pre.stats.elapsed_ms;
    solved->preprocess = pre.stats;
    return solved;
  }

  auto solved = Dispatch(pre.pruned, options, &pre.orientation);
  if (!solved.ok()) return solved.status();

  // Report in original ids. The remap is monotone and cliques are appended
  // in the order the solver produced them, so a byte-compare against the
  // unpruned run's store is meaningful (and asserted in the harness).
  SolveResult result(options.k);
  result.stats = solved->stats;
  result.stats.init_ms += pre.stats.elapsed_ms;
  result.preprocess = pre.stats;
  std::vector<NodeId> mapped(static_cast<size_t>(options.k));
  for (CliqueId c = 0; c < solved->set.size(); ++c) {
    const auto nodes = solved->set.Get(c);
    for (int i = 0; i < options.k; ++i) mapped[i] = pre.new_to_old[nodes[i]];
    result.set.Add(mapped);
  }
  // Peeled nodes lie in no k-clique: their score is 0.
  if (!solved->node_scores.empty()) {
    result.node_scores.assign(g.num_nodes(), 0);
    for (NodeId pu = 0; pu < pre.new_to_old.size(); ++pu) {
      result.node_scores[pre.new_to_old[pu]] = solved->node_scores[pu];
    }
  }
  return result;
}

}  // namespace dkc
