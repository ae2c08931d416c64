#include "router/placement.h"

#include <algorithm>
#include <cassert>

#include "util/bytes.h"

namespace lamo {

uint64_t RouterHash(const std::string& key) {
  return Fnv1a64(key, kFnvLegacyBasis);
}

size_t ShardBackend(uint32_t protein, size_t num_backends) {
  assert(num_backends > 0);
  return protein % num_backends;
}

HashRing::HashRing(size_t num_nodes, size_t virtual_nodes)
    : num_nodes_(num_nodes) {
  assert(num_nodes > 0);
  points_.reserve(num_nodes * virtual_nodes);
  for (size_t node = 0; node < num_nodes; ++node) {
    for (size_t v = 0; v < virtual_nodes; ++v) {
      const std::string label =
          "node-" + std::to_string(node) + "#" + std::to_string(v);
      points_.push_back({RouterHash(label), static_cast<uint32_t>(node)});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.node < b.node;
            });
}

size_t HashRing::Primary(const std::string& key) const {
  const uint64_t hash = RouterHash(key);
  auto it = std::lower_bound(points_.begin(), points_.end(), hash,
                             [](const Point& p, uint64_t h) {
                               return p.hash < h;
                             });
  if (it == points_.end()) it = points_.begin();  // wrap around
  return it->node;
}

std::vector<size_t> HashRing::Preference(const std::string& key) const {
  const uint64_t hash = RouterHash(key);
  auto start = std::lower_bound(points_.begin(), points_.end(), hash,
                                [](const Point& p, uint64_t h) {
                                  return p.hash < h;
                                });
  std::vector<size_t> order;
  order.reserve(num_nodes_);
  std::vector<bool> seen(num_nodes_, false);
  for (size_t walked = 0;
       walked < points_.size() && order.size() < num_nodes_; ++walked) {
    if (start == points_.end()) start = points_.begin();
    if (!seen[start->node]) {
      seen[start->node] = true;
      order.push_back(start->node);
    }
    ++start;
  }
  // A node with pathological hash collisions could in principle contribute no
  // point; append any stragglers in index order so the result always covers
  // every node.
  for (size_t node = 0; node < num_nodes_; ++node) {
    if (!seen[node]) order.push_back(node);
  }
  return order;
}

}  // namespace lamo
