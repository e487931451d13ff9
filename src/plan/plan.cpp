#include "src/plan/plan.h"

#include <algorithm>
#include <functional>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace neo::plan {

const char* JoinOpName(JoinOp op) {
  switch (op) {
    case JoinOp::kHash: return "HJ";
    case JoinOp::kMerge: return "MJ";
    case JoinOp::kLoop: return "LJ";
  }
  return "?";
}

const char* ScanOpName(ScanOp op) {
  switch (op) {
    case ScanOp::kTable: return "T";
    case ScanOp::kIndex: return "I";
    case ScanOp::kUnspecified: return "U";
  }
  return "?";
}

size_t PlanNode::NumNodes() const {
  if (!is_join) return 1;
  return 1 + left->NumNodes() + right->NumNodes();
}

NodeRef MakeScan(ScanOp op, int table_id, uint64_t rel_mask) {
  auto node = std::make_shared<PlanNode>();
  node->is_join = false;
  node->scan_op = op;
  node->table_id = table_id;
  node->rel_mask = rel_mask;
  node->num_unspecified = op == ScanOp::kUnspecified ? 1 : 0;
  node->hash = util::HashCombine(
      util::Mix64(0x5ca0ULL + static_cast<uint64_t>(op)),
      util::Mix64(static_cast<uint64_t>(table_id) + 0x11ULL));
  node->subtree_fp = util::HashCombine(node->hash, util::Mix64(rel_mask));
  return node;
}

NodeRef MakeJoin(JoinOp op, NodeRef left, NodeRef right) {
  NEO_CHECK(left != nullptr && right != nullptr);
  NEO_CHECK((left->rel_mask & right->rel_mask) == 0);
  auto node = std::make_shared<PlanNode>();
  node->is_join = true;
  node->join_op = op;
  node->rel_mask = left->rel_mask | right->rel_mask;
  node->num_unspecified = left->num_unspecified + right->num_unspecified;
  node->hash = util::HashCombine(
      util::HashCombine(util::Mix64(0x701AULL + static_cast<uint64_t>(op)), left->hash),
      right->hash);
  node->subtree_fp = util::HashCombine(
      util::HashCombine(util::Mix64(0xac71ULL + static_cast<uint64_t>(op)),
                        left->subtree_fp),
      right->subtree_fp);
  node->left = std::move(left);
  node->right = std::move(right);
  return node;
}

PartialPlan PartialPlan::Initial(const query::Query& q) {
  PartialPlan p;
  p.query = &q;
  p.roots.reserve(q.relations.size());
  for (size_t i = 0; i < q.relations.size(); ++i) {
    p.roots.push_back(MakeScan(ScanOp::kUnspecified, q.relations[i], 1ULL << i));
  }
  return p;
}

bool PartialPlan::IsComplete() const {
  return roots.size() == 1 && roots[0]->num_unspecified == 0;
}

size_t PartialPlan::NumUnspecified() const {
  size_t n = 0;
  for (const auto& r : roots) n += static_cast<size_t>(r->num_unspecified);
  return n;
}

uint64_t PartialPlan::CoveredMask() const {
  uint64_t mask = 0;
  for (const auto& r : roots) mask |= r->rel_mask;
  return mask;
}

uint64_t PartialPlan::Hash() const {
  // Order-independent: combine sorted root hashes. Roots have disjoint,
  // non-empty rel_masks, so a forest has at most 64 of them and the sort
  // runs in a fixed on-stack buffer (search hashes every child it makes).
  constexpr size_t kMaxRoots = 64;
  NEO_CHECK(roots.size() <= kMaxRoots);
  uint64_t hashes[kMaxRoots];
  const size_t n = roots.size();
  for (size_t i = 0; i < n; ++i) hashes[i] = roots[i]->hash;
  std::sort(hashes, hashes + n);
  uint64_t h = util::Mix64(0xf0e57ULL + n);
  for (size_t i = 0; i < n; ++i) h = util::HashCombine(h, hashes[i]);
  return h;
}

std::string NodeToString(const PlanNode& node, const catalog::Schema& schema) {
  if (!node.is_join) {
    return std::string(ScanOpName(node.scan_op)) + "(" +
           schema.table(node.table_id).name + ")";
  }
  return std::string(JoinOpName(node.join_op)) + "(" +
         NodeToString(*node.left, schema) + "," + NodeToString(*node.right, schema) + ")";
}

std::string PartialPlan::ToString(const catalog::Schema& schema) const {
  std::string out;
  for (size_t i = 0; i < roots.size(); ++i) {
    if (i) out += ",";
    out += "[" + NodeToString(*roots[i], schema) + "]";
  }
  return out;
}

PartialPlan TrainingState(const query::Query& q, const NodeRef& subtree) {
  PartialPlan p;
  p.query = &q;
  p.roots.reserve(q.relations.size());
  p.roots.push_back(subtree);
  for (size_t i = 0; i < q.relations.size(); ++i) {
    if (!(subtree->rel_mask & (1ULL << i))) {
      p.roots.push_back(MakeScan(ScanOp::kUnspecified, q.relations[i], 1ULL << i));
    }
  }
  return p;
}

std::vector<PartialPlan> DecomposeForTraining(const PartialPlan& complete) {
  NEO_CHECK(complete.query != nullptr);
  const query::Query& q = *complete.query;
  std::vector<PartialPlan> states;

  std::function<void(const NodeRef&)> visit = [&](const NodeRef& node) {
    states.push_back(TrainingState(q, node));
    if (node->is_join) {
      visit(node->left);
      visit(node->right);
    }
  };
  for (const auto& root : complete.roots) visit(root);
  states.push_back(PartialPlan::Initial(q));
  return states;
}

namespace {

/// True if `sub` can be specialized into `full` (same shape & operators;
/// unspecified scans in `sub` may map to any scan of the same table).
bool NodeSpecializes(const PlanNode& sub, const PlanNode& full) {
  if (sub.is_join != full.is_join) return false;
  if (!sub.is_join) {
    if (sub.table_id != full.table_id) return false;
    return sub.scan_op == ScanOp::kUnspecified || sub.scan_op == full.scan_op;
  }
  if (sub.join_op != full.join_op) return false;
  return NodeSpecializes(*sub.left, *full.left) && NodeSpecializes(*sub.right, *full.right);
}

}  // namespace

bool IsSubplanOf(const PartialPlan& sub, const PartialPlan& full) {
  if (sub.query != full.query) return false;
  // Index full's subtrees by relation mask. Within one tree, a given relation
  // set appears at most once, and roots have disjoint masks, so the mapping
  // from sub-tree to full-subtree is forced.
  std::vector<const PlanNode*> by_mask;
  std::function<void(const PlanNode&)> collect = [&](const PlanNode& n) {
    by_mask.push_back(&n);
    if (n.is_join) {
      collect(*n.left);
      collect(*n.right);
    }
  };
  for (const auto& r : full.roots) collect(*r);

  for (const auto& tree : sub.roots) {
    bool matched = false;
    for (const PlanNode* candidate : by_mask) {
      if (candidate->rel_mask == tree->rel_mask &&
          NodeSpecializes(*tree, *candidate)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

}  // namespace neo::plan
