// SESR NAS search space (paper Section 3.4 / Fig. 9).
//
// Each candidate is a SESR-shaped chain of collapsible linear blocks whose
// per-block kernels may be small, even-sized or asymmetric (2x2, 2x1, 2x3,
// 3x2, ...), plus a channel width and depth. Short residuals fold only into
// odd x odd kernels (Algorithm 2 needs a center tap), so even/asymmetric
// blocks run residual-free — the same constraint the paper's DNAS respects.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan/network_ir.hpp"
#include "tensor/rng.hpp"

namespace sesr::nas {

struct KernelChoice {
  std::int64_t kh = 3;
  std::int64_t kw = 3;
  bool odd() const { return kh % 2 == 1 && kw % 2 == 1; }
  friend bool operator==(const KernelChoice&, const KernelChoice&) = default;
};

// The kernel menu for intermediate blocks (the paper's Fig. 9 alphabet).
const std::vector<KernelChoice>& block_kernel_menu();
// First/last block menu (3x3 or 5x5, as found by the paper's NAS).
const std::vector<KernelChoice>& edge_kernel_menu();
// Channel width menu.
const std::vector<std::int64_t>& channel_menu();

struct Genome {
  std::int64_t f = 16;
  std::int64_t scale = 2;
  KernelChoice first{5, 5};
  KernelChoice last{5, 5};
  std::vector<KernelChoice> blocks;  // depth = blocks.size()

  std::string describe() const;  // e.g. "f=16 [5x5 | 3x3 2x2 3x2 | 5x5]"
  // Collapsed parameter count of the decoded network.
  std::int64_t parameter_count() const;
};

// A random genome with depth in [min_depth, max_depth].
Genome random_genome(std::int64_t scale, std::int64_t min_depth, std::int64_t max_depth, Rng& rng);

// Point mutation: perturb one of {block kernel, depth, width, edge kernels}.
Genome mutate(const Genome& genome, Rng& rng, std::int64_t min_depth, std::int64_t max_depth);

// One-point crossover over the block list; width/edges from either parent.
Genome crossover(const Genome& a, const Genome& b, Rng& rng);

// Hardware IR of the *collapsed* candidate for latency estimation.
hw::NetworkIr genome_ir(const Genome& genome, std::int64_t in_h, std::int64_t in_w);

}  // namespace sesr::nas
