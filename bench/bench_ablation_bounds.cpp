// simj-lint: allow-file(io) -- benchmark/example harness prints results to stdout.
// Ablation: tightness and pruning power of the GED lower bounds.
//
// Compares the count bound [29], the label-multiset bound [31] and the CSS
// bound (Thm. 1/3) on (a) certain pairs — average bound value vs the exact
// GED — and (b) uncertain pairs — pruning power at various tau. Thm. 2
// guarantees CSS >= LM >= count pointwise; this quantifies the gap.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/similarity.h"
#include "ged/edit_distance.h"
#include "ged/lower_bounds.h"

int main(int argc, char** argv) {
  using namespace simj;
  bench::ParseBenchFlags(argc, argv);
  bench::PrintHeader("Ablation: lower bound tightness and pruning power");

  workload::SyntheticConfig config;
  config.seed = 104;
  config.num_certain = 60;
  config.num_uncertain = 60;
  config.num_vertices = 8;
  config.num_edges = 12;
  workload::SyntheticDataset data = workload::MakeErDataset(config);

  // (a) Tightness on certain pairs (uncertain side collapsed to its most
  // probable world).
  double sum_exact = 0.0;
  double sum_count = 0.0;
  double sum_lm = 0.0;
  double sum_css = 0.0;
  int64_t pairs = 0;
  for (size_t i = 0; i < data.certain.size(); i += 4) {
    for (size_t j = 0; j < data.certain.size(); j += 4) {
      const graph::LabeledGraph& a = data.certain[i];
      const graph::LabeledGraph& b = data.certain[j];
      sum_exact += ged::ExactGed(a, b, data.dict).distance;
      sum_count += ged::CountLowerBound(a, b);
      sum_lm += ged::LabelMultisetLowerBound(a, b, data.dict);
      sum_css += ged::CssLowerBound(a, b, data.dict);
      ++pairs;
    }
  }
  std::printf("(a) average bound value over %lld certain pairs\n",
              static_cast<long long>(pairs));
  std::printf("    exact GED: %.2f | count: %.2f | label-multiset: %.2f | "
              "CSS: %.2f\n\n",
              sum_exact / pairs, sum_count / pairs, sum_lm / pairs,
              sum_css / pairs);

  // (b) Pruning power on uncertain pairs. The count and LM bounds are made
  // world-uniform the only sound way available to them: count ignores
  // labels entirely; LM uses the bipartite lambda_V like CSS but no degree
  // term.
  std::printf("(b) candidate ratio (%%) against the uncertain side\n");
  std::printf("%4s %10s %14s %10s\n", "tau", "count", "LM+bipartite", "CSS");
  for (int tau = 0; tau <= 4; ++tau) {
    int64_t candidate_count = 0;
    int64_t candidate_lm = 0;
    int64_t candidate_css = 0;
    int64_t total = 0;
    for (const auto& q : data.certain) {
      for (const auto& g : data.uncertain) {
        ++total;
        const graph::LabeledGraph& structure = g.structure();
        int count_bound =
            std::abs(q.num_vertices() - structure.num_vertices()) +
            std::abs(q.num_edges() - structure.num_edges());
        if (count_bound <= tau) ++candidate_count;
        int lambda_v = ged::MaxCommonVertexLabels(q, g, data.dict);
        int lambda_e = graph::MatchableLabelCount(
            q.EdgeLabelCounts(), structure.EdgeLabelCounts(), data.dict);
        int lm_bound =
            std::max(q.num_vertices(), structure.num_vertices()) - lambda_v +
            std::max(q.num_edges(), structure.num_edges()) - lambda_e;
        if (lm_bound <= tau) ++candidate_lm;
        if (ged::CssLowerBoundUncertain(q, g, data.dict) <= tau) {
          ++candidate_css;
        }
      }
    }
    std::printf("%4d %9.3f%% %13.3f%% %9.3f%%\n", tau,
                100.0 * candidate_count / total, 100.0 * candidate_lm / total,
                100.0 * candidate_css / total);
  }

  // (c) The law-of-total-probability refinement of the Markov bound
  // (Section 5's sketched extension): average upper-bound value at
  // conditioning depths 0..3 (smaller is tighter; all are valid).
  std::printf("\n(c) average SimP upper bound vs conditioning depth "
              "(tau = 2)\n");
  std::printf("%6s %12s\n", "depth", "avg bound");
  for (int depth : {0, 1, 2, 3}) {
    double sum = 0.0;
    int64_t pairs_counted = 0;
    for (size_t i = 0; i < data.certain.size(); i += 3) {
      for (size_t j = 0; j < data.uncertain.size(); j += 3) {
        sum += core::UpperBoundSimPTotalProbability(
            data.certain[i], data.uncertain[j], /*tau=*/2, data.dict, depth);
        ++pairs_counted;
      }
    }
    std::printf("%6d %12.4f\n", depth, sum / pairs_counted);
  }
  return 0;
}
