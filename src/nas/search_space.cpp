#include "nas/search_space.hpp"

#include <stdexcept>

namespace sesr::nas {

const std::vector<KernelChoice>& block_kernel_menu() {
  static const std::vector<KernelChoice> menu{
      {1, 1}, {2, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 2}, {3, 3},
  };
  return menu;
}

const std::vector<KernelChoice>& edge_kernel_menu() {
  static const std::vector<KernelChoice> menu{{3, 3}, {5, 5}};
  return menu;
}

const std::vector<std::int64_t>& channel_menu() {
  static const std::vector<std::int64_t> menu{8, 12, 16, 24, 32};
  return menu;
}

std::string Genome::describe() const {
  // Appended piece by piece: gcc 12 flags `"literal" + std::string&&` with a
  // false -Wrestrict.
  const auto kernel = [](const KernelChoice& k) {
    return std::to_string(k.kh) + "x" + std::to_string(k.kw);
  };
  std::string s = "f=";
  s += std::to_string(f);
  s += " [";
  s += kernel(first);
  s += " |";
  for (const KernelChoice& k : blocks) {
    s += ' ';
    s += kernel(k);
  }
  s += " | ";
  s += kernel(last);
  s += ']';
  return s;
}

std::int64_t Genome::parameter_count() const {
  std::int64_t p = first.kh * first.kw * 1 * f;
  for (const KernelChoice& k : blocks) p += k.kh * k.kw * f * f;
  p += last.kh * last.kw * f * scale * scale;
  return p;
}

namespace {
template <typename T>
const T& pick(const std::vector<T>& menu, Rng& rng) {
  return menu[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(menu.size()) - 1))];
}
}  // namespace

Genome random_genome(std::int64_t scale, std::int64_t min_depth, std::int64_t max_depth,
                     Rng& rng) {
  if (min_depth < 1 || max_depth < min_depth) {
    throw std::invalid_argument("random_genome: bad depth range");
  }
  Genome g;
  g.scale = scale;
  g.f = pick(channel_menu(), rng);
  g.first = pick(edge_kernel_menu(), rng);
  g.last = pick(edge_kernel_menu(), rng);
  const std::int64_t depth = rng.uniform_int(min_depth, max_depth);
  for (std::int64_t i = 0; i < depth; ++i) g.blocks.push_back(pick(block_kernel_menu(), rng));
  return g;
}

Genome mutate(const Genome& genome, Rng& rng, std::int64_t min_depth, std::int64_t max_depth) {
  Genome g = genome;
  switch (rng.uniform_int(0, 4)) {
    case 0: {  // re-roll one block kernel
      if (!g.blocks.empty()) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(g.blocks.size()) - 1));
        g.blocks[i] = pick(block_kernel_menu(), rng);
      }
      break;
    }
    case 1: {  // grow
      if (static_cast<std::int64_t>(g.blocks.size()) < max_depth) {
        g.blocks.insert(g.blocks.begin() + rng.uniform_int(
                                               0, static_cast<std::int64_t>(g.blocks.size())),
                        pick(block_kernel_menu(), rng));
      }
      break;
    }
    case 2: {  // shrink
      if (static_cast<std::int64_t>(g.blocks.size()) > min_depth) {
        g.blocks.erase(g.blocks.begin() +
                       rng.uniform_int(0, static_cast<std::int64_t>(g.blocks.size()) - 1));
      }
      break;
    }
    case 3:
      g.f = pick(channel_menu(), rng);
      break;
    default:
      if (rng.bernoulli(0.5)) g.first = pick(edge_kernel_menu(), rng);
      else g.last = pick(edge_kernel_menu(), rng);
      break;
  }
  return g;
}

Genome crossover(const Genome& a, const Genome& b, Rng& rng) {
  const bool base_is_a = rng.bernoulli(0.5);
  Genome g = base_is_a ? a : b;
  const Genome& other = base_is_a ? b : a;
  // Splice block tails.
  if (!g.blocks.empty() && !other.blocks.empty()) {
    const std::int64_t cut_a = rng.uniform_int(0, static_cast<std::int64_t>(g.blocks.size()));
    const std::int64_t cut_b = rng.uniform_int(0, static_cast<std::int64_t>(other.blocks.size()));
    std::vector<KernelChoice> blocks(g.blocks.begin(), g.blocks.begin() + cut_a);
    blocks.insert(blocks.end(), other.blocks.begin() + cut_b, other.blocks.end());
    if (!blocks.empty()) g.blocks = std::move(blocks);
  }
  return g;
}

hw::NetworkIr genome_ir(const Genome& genome, std::int64_t in_h, std::int64_t in_w) {
  hw::NetworkIr ir;
  ir.name = "NAS " + genome.describe();
  ir.input_h = in_h;
  ir.input_w = in_w;
  auto conv = [&](const std::string& label, std::int64_t in_c, std::int64_t out_c,
                  const KernelChoice& k) {
    hw::LayerDesc l;
    l.kind = hw::OpKind::kConv;
    l.label = label;
    l.in_h = in_h;
    l.in_w = in_w;
    l.in_c = in_c;
    l.out_c = out_c;
    l.kh = k.kh;
    l.kw = k.kw;
    ir.layers.push_back(l);
  };
  auto act = [&](const std::string& label, std::int64_t c) {
    hw::LayerDesc l;
    l.kind = hw::OpKind::kActivation;
    l.label = label;
    l.in_h = in_h;
    l.in_w = in_w;
    l.in_c = c;
    l.out_c = c;
    ir.layers.push_back(l);
  };
  conv("first", 1, genome.f, genome.first);
  act("act0", genome.f);
  for (std::size_t i = 0; i < genome.blocks.size(); ++i) {
    conv("block" + std::to_string(i), genome.f, genome.f, genome.blocks[i]);
    act("act" + std::to_string(i + 1), genome.f);
  }
  conv("last", genome.f, genome.scale * genome.scale, genome.last);
  hw::LayerDesc shuffle;
  shuffle.kind = hw::OpKind::kDepthToSpace;
  shuffle.label = "shuffle";
  shuffle.in_h = in_h;
  shuffle.in_w = in_w;
  shuffle.in_c = genome.scale * genome.scale;
  shuffle.out_c = 1;
  shuffle.stride = genome.scale;
  ir.layers.push_back(shuffle);
  return ir;
}

}  // namespace sesr::nas
