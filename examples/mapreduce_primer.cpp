// Primer on the engine's programming model: registered rounds plus one
// central round.
//
// Every algorithm in the paper is written as two kinds of step: a
// per-machine round that reads the machine's inbox and sends messages,
// and a central-machine step (the paper's "blue lines"). Here the first
// kind is registered with define_round before the job starts and run
// with invoke_round; the second is run_central_round. This example
// computes a degree histogram of a graph with two registered rounds and
// one central round, and shows the audited communication costs.

#include <iostream>
#include <map>
#include <span>
#include <vector>

#include "mrlr/graph/generators.hpp"
#include "mrlr/mrc/engine.hpp"
#include "mrlr/mrc/trace.hpp"

int main() {
  using namespace mrlr;
  using mrc::MachineContext;
  using mrc::Word;

  Rng rng(3);
  const graph::Graph g = graph::gnm(2000, 16000, rng);
  std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges()
            << "\n";

  mrc::Topology topo;
  topo.num_machines = 16;
  topo.words_per_machine = 1 << 18;
  topo.fanout = 4;
  mrc::Engine engine(topo);
  const std::uint64_t machines = topo.num_machines;
  const auto owner = [machines](Word x) {
    return static_cast<mrc::MachineId>(x % machines);
  };

  // Round 1 (map): machine k holds edges k, k+M, k+2M, ... and sends one
  // word per endpoint to the machine owning that vertex.
  const mrc::RoundId map = engine.define_round(
      "degrees", [&](MachineContext& ctx, std::span<const Word>) {
        std::uint64_t held = 0;
        for (std::uint64_t e = ctx.id(); e < g.num_edges(); e += machines) {
          const graph::Edge& edge = g.edge(static_cast<graph::EdgeId>(e));
          ctx.send(owner(edge.u), {edge.u});
          ctx.send(owner(edge.v), {edge.v});
          held += 2;
        }
        ctx.charge_resident(held);
      });

  // Round 2 (reduce): each owner counts its vertices' degrees, folds
  // them into a local histogram, and sends it to the central machine as
  // (degree, count) pairs.
  const mrc::RoundId reduce = engine.define_round(
      "histogram", [](MachineContext& ctx, std::span<const Word>) {
        std::map<Word, Word> degree;
        for (const mrc::MessageView msg : ctx.messages()) {
          ++degree[msg.payload[0]];
        }
        std::map<Word, Word> local;
        for (const auto& [vertex, d] : degree) ++local[d];
        ctx.charge_resident(2 * (degree.size() + local.size()));
        std::vector<Word> out;
        for (const auto& [d, count] : local) {
          out.push_back(d);
          out.push_back(count);
        }
        ctx.send(mrc::kCentral, out);
      });

  engine.invoke_round(map);
  engine.invoke_round(reduce);

  // Central round: merge the per-machine histograms.
  std::map<Word, Word> histogram;
  engine.run_central_round("merge", [&](MachineContext& ctx) {
    for (const mrc::MessageView msg : ctx.messages()) {
      for (std::size_t i = 0; i + 1 < msg.payload.size(); i += 2) {
        histogram[msg.payload[i]] += msg.payload[i + 1];
      }
    }
    ctx.charge_resident(2 * histogram.size());
  });

  std::cout << "degree histogram (degree: count), first 10 buckets:\n";
  int shown = 0;
  for (const auto& [deg, count] : histogram) {
    if (shown++ >= 10) break;
    std::cout << "  " << deg << ": " << count << "\n";
  }

  std::cout << "\ncluster costs per round:\n";
  mrc::print_trace(engine.metrics(), std::cout);
  return 0;
}
