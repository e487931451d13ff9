// Physical query execution plans (paper §3.1).
//
// A *partial plan* is a forest of immutable operator trees for a query q.
// Internal nodes are join operators (hash / merge / loop); leaves are scans
// (table / index / unspecified). A *complete plan* is a single tree with no
// unspecified scans. Nodes are immutable and shared between plans
// (shared_ptr), so the best-first search can branch cheaply.
//
// Index scans do not commit to a specific index column: per the paper, the
// execution engine applies semantically-necessary choices (it picks the join
// -key index when the scan feeds a loop join, otherwise a predicate-column
// index). See engine/latency_model.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/query/query.h"

namespace neo::plan {

enum class JoinOp : int { kHash = 0, kMerge = 1, kLoop = 2 };
constexpr int kNumJoinOps = 3;
const char* JoinOpName(JoinOp op);

enum class ScanOp : int { kTable = 0, kIndex = 1, kUnspecified = 2 };
const char* ScanOpName(ScanOp op);

struct PlanNode;
using NodeRef = std::shared_ptr<const PlanNode>;

struct PlanNode {
  bool is_join = false;

  // Join fields (is_join == true). Left child is the outer/probe side, right
  // child is the inner/build side.
  JoinOp join_op = JoinOp::kHash;
  NodeRef left;
  NodeRef right;

  // Scan fields (is_join == false).
  ScanOp scan_op = ScanOp::kUnspecified;
  int table_id = -1;

  /// Bitmask of relation *positions* (within Query::relations) covered.
  uint64_t rel_mask = 0;

  /// Number of unspecified scans in this subtree.
  int num_unspecified = 0;

  /// Structural hash (operators + shape + tables); cached at construction.
  uint64_t hash = 0;

  /// Subtree fingerprint: like `hash` but additionally mixing in rel_mask at
  /// every node, so it determines the *featurization* of the entire subtree
  /// (scan/join bits depend on ops + tables; the optional cardinality channel
  /// depends on rel_mask). Within one query, equal fingerprints imply
  /// bit-identical feature rows for the node and all descendants — the key of
  /// the search's subtree table. Cached at construction.
  uint64_t subtree_fp = 0;

  size_t NumNodes() const;
};

/// Creates a scan leaf.
NodeRef MakeScan(ScanOp op, int table_id, uint64_t rel_mask);

/// Creates a join node over two subtrees.
NodeRef MakeJoin(JoinOp op, NodeRef left, NodeRef right);

/// A partial execution plan: forest of trees over a query's relations.
class PartialPlan {
 public:
  PartialPlan() = default;

  /// Initial search state: one unspecified scan per relation of `q`.
  static PartialPlan Initial(const query::Query& q);

  const query::Query* query = nullptr;
  std::vector<NodeRef> roots;

  bool IsComplete() const;
  size_t NumUnspecified() const;
  uint64_t CoveredMask() const;

  /// Order-independent hash of the whole forest.
  uint64_t Hash() const;

  /// Human-readable rendering, e.g. "[HJ(T(title),I(keyword))],[U(cast)]".
  std::string ToString(const catalog::Schema& schema) const;
};

/// Renders a single tree.
std::string NodeToString(const PlanNode& node, const catalog::Schema& schema);

/// The training state of a subtree S (`subtree`) of a plan for `q`: the
/// forest {S} ∪ {U(r) | r outside S}, S first and the unspecified scans in
/// relation order. A lone unspecified scan as S gives PartialPlan::Initial(q).
PartialPlan TrainingState(const query::Query& q, const NodeRef& subtree);

/// Training decomposition (paper §4): partial-plan states whose best-known
/// cost is bounded by this complete plan's cost. For each subtree S of the
/// plan we emit TrainingState(S), plus the all-unspecified initial state.
std::vector<PartialPlan> DecomposeForTraining(const PartialPlan& complete);

/// True if `sub` is a subplan of `full` per the paper's definition: every
/// tree of `sub` either appears as a subtree of `full` (exactly, or with
/// unspecified scans specialized) or is a lone scan leaf.
bool IsSubplanOf(const PartialPlan& sub, const PartialPlan& full);

}  // namespace neo::plan
