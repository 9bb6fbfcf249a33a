#include "nlp/dependency.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <utility>

#include "util/check.h"
#include "util/strings.h"

namespace simj::nlp {

namespace {

bool IsSlotToken(const std::string& token) {
  return StartsWith(token, "<slot") && EndsWith(token, ">");
}

// Zhang-Shasha preprocessing: postorder labels, leftmost-leaf indices and
// keyroots (all 1-based). Labels point into the source tree; `slot` marks
// the labels that rename to anything for free (kSlotMarker is one of them).
struct ZsTree {
  std::vector<const std::string*> labels;  // [1..n]
  std::vector<uint8_t> slot;               // [1..n]
  std::vector<int> lml;                    // [1..n]
  std::vector<int> keyroots;
};

int RenameCost(const ZsTree& a, int i, const ZsTree& b, int j) {
  if (a.slot[i] || b.slot[j]) return 0;
  return *a.labels[i] == *b.labels[j] ? 0 : 1;
}

void ZsDfs(const DepTree& tree, int node, ZsTree& out, int& counter,
           std::vector<int>& lml_of_node) {
  int leftmost = -1;
  for (int child : tree.nodes[node].children) {
    ZsDfs(tree, child, out, counter, lml_of_node);
    if (leftmost == -1) leftmost = lml_of_node[child];
  }
  ++counter;
  lml_of_node[node] = leftmost == -1 ? counter : leftmost;
  out.labels[counter] = &tree.nodes[node].label;
  out.slot[counter] = IsSlotToken(tree.nodes[node].label);
  out.lml[counter] = lml_of_node[node];
}

ZsTree BuildZsTree(const DepTree& tree) {
  ZsTree out;
  int n = tree.size();
  out.labels.resize(n + 1);
  out.slot.resize(n + 1);
  out.lml.resize(n + 1);
  if (n == 0) return out;
  std::vector<int> lml_of_node(n, 0);
  int counter = 0;
  ZsDfs(tree, tree.root, out, counter, lml_of_node);
  SIMJ_CHECK_EQ(counter, n);
  // Keyroots: for each distinct leftmost-leaf value, the largest postorder
  // index carrying it.
  std::vector<int> last_with_lml(n + 1, 0);
  for (int i = 1; i <= n; ++i) last_with_lml[out.lml[i]] = i;
  for (int i = 1; i <= n; ++i) {
    if (last_with_lml[out.lml[i]] == i) out.keyroots.push_back(i);
  }
  return out;
}

}  // namespace

DepTree BuildQuestionTree(const ParsedQuestion& question) {
  const SemanticQueryGraph& sq = question.graph;
  DepTree tree;
  // One node per argument, one per relation.
  std::vector<int> arg_node(sq.arguments.size());
  for (size_t i = 0; i < sq.arguments.size(); ++i) {
    std::string label = sq.arguments[i].phrase;
    if (label.empty()) label = "wh";
    arg_node[i] = tree.size();
    tree.nodes.push_back(DepTree::Node{label, {}});
  }
  for (const SemanticQueryGraph::Relation& rel : sq.relations) {
    int rel_node = tree.size();
    tree.nodes.push_back(DepTree::Node{rel.phrase, {}});
    tree.nodes[arg_node[rel.arg1]].children.push_back(rel_node);
    tree.nodes[rel_node].children.push_back(arg_node[rel.arg2]);
  }
  tree.root = question.wh_argument >= 0 ? arg_node[question.wh_argument] : 0;
  return tree;
}

DepTree SlottedTree(const DepTree& tree,
                    const std::vector<std::string>& slot_phrases) {
  DepTree out = tree;
  for (DepTree::Node& node : out.nodes) {
    for (const std::string& phrase : slot_phrases) {
      if (node.label == phrase) {
        node.label = kSlotMarker;
        break;
      }
    }
  }
  return out;
}

int TreeEditDistance(const DepTree& a, const DepTree& b) {
  const int n = a.size();
  const int m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  const ZsTree ta = BuildZsTree(a);
  const ZsTree tb = BuildZsTree(b);

  // td is the tree-distance table; fd is the forest-distance table of one
  // keyroot pair, reused by every pair. Both are row-major with stride m+1:
  // the root pair, the largest, spans (n+1) x (m+1).
  const int stride = m + 1;
  std::vector<int> td(static_cast<size_t>(n + 1) * stride, 0);
  std::vector<int> fd(td.size());

  for (int k1 : ta.keyroots) {
    for (int k2 : tb.keyroots) {
      const int l1 = ta.lml[k1];
      const int l2 = tb.lml[k2];
      const int rows = k1 - l1 + 2;
      const int cols = k2 - l2 + 2;
      fd[0] = 0;
      for (int di = 1; di < rows; ++di) fd[di * stride] = di;
      for (int dj = 1; dj < cols; ++dj) fd[dj] = dj;
      for (int di = 1; di < rows; ++di) {
        const int i = l1 + di - 1;
        int* row = &fd[di * stride];
        const int* above = row - stride;
        for (int dj = 1; dj < cols; ++dj) {
          const int j = l2 + dj - 1;
          if (ta.lml[i] == l1 && tb.lml[j] == l2) {
            row[dj] = std::min({above[dj] + 1, row[dj - 1] + 1,
                                above[dj - 1] + RenameCost(ta, i, tb, j)});
            td[i * stride + j] = row[dj];
          } else {
            const int pi = ta.lml[i] - l1;  // forest prefix before subtree of i
            const int pj = tb.lml[j] - l2;
            row[dj] = std::min({above[dj] + 1, row[dj - 1] + 1,
                                fd[pi * stride + pj] + td[i * stride + j]});
          }
        }
      }
    }
  }
  return td[n * stride + m];
}

AlignQuestion PrepareAlignQuestion(
    std::vector<std::string> question_tokens,
    const std::function<bool(const std::string&)>* slot_validator) {
  AlignQuestion question(std::move(question_tokens));
  const int q = static_cast<int>(question.tokens_.size());
  question.linkable_.assign(static_cast<size_t>(q) * kMaxSlotTokens, 0);
  for (int j = 0; j < q; ++j) {
    std::string span;
    for (int len = 1; len <= kMaxSlotTokens && j + len <= q; ++len) {
      if (!span.empty()) span += ' ';
      span += question.tokens_[j + len - 1];
      question.linkable_[j * kMaxSlotTokens + len - 1] =
          slot_validator == nullptr || (*slot_validator)(span);
    }
  }
  return question;
}

std::optional<TokenAlignment> AlignTokens(
    const std::vector<std::string>& template_tokens, int num_slots,
    const AlignQuestion& question) {
  const std::vector<std::string>& question_tokens = question.tokens_;
  const int t = static_cast<int>(template_tokens.size());
  const int q = static_cast<int>(question_tokens.size());
  constexpr int kInf = std::numeric_limits<int>::max() / 4;

  // Moves, in preference order on full ties.
  enum Move : uint8_t { kNone, kMatch, kSlot, kSubst, kDelete, kInsert };
  using Cell = AlignQuestion::Cell;
  const int width = q + 1;
  std::vector<Cell>& dp = question.dp_;
  dp.assign(static_cast<size_t>(t + 1) * width, Cell{kInf, -1, kNone, 0});
  dp[0].cost = 0;
  dp[0].matches = 0;

  // Lower cost wins; on ties, more exact matches (tighter slot spans and
  // better phi); on full ties, the earlier move in the enum.
  auto relax = [](Cell& cell, int cost, int matches, Move move,
                  int consumed) {
    if (cost < cell.cost ||
        (cost == cell.cost && matches > cell.matches) ||
        (cost == cell.cost && matches == cell.matches && move < cell.move)) {
      cell.cost = cost;
      cell.matches = matches;
      cell.move = move;
      cell.consumed = static_cast<uint8_t>(consumed);
    }
  };

  for (int i = 0; i <= t; ++i) {
    Cell* row = &dp[static_cast<size_t>(i) * width];
    Cell* next = row + width;
    // A slot captures a short phrase (entity phrases are at most a few
    // tokens); longer spans must pay as insertions, so partial matches
    // genuinely lower phi. Only capturable spans qualify.
    const bool slot_row = i < t && IsSlotToken(template_tokens[i]);
    for (int j = 0; j <= q; ++j) {
      if (row[j].cost >= kInf) continue;
      const int cost = row[j].cost;
      const int matches = row[j].matches;
      if (i < t) {
        if (slot_row) {
          const uint8_t* linkable = &question.linkable_[j * kMaxSlotTokens];
          for (int consume = 1;
               consume <= kMaxSlotTokens && j + consume <= q; ++consume) {
            if (!linkable[consume - 1]) continue;
            relax(next[j + consume], cost, matches, kSlot, consume);
          }
        } else if (j < q) {
          if (template_tokens[i] == question_tokens[j]) {
            relax(next[j + 1], cost, matches + 1, kMatch, 0);
          } else {
            relax(next[j + 1], cost + 1, matches, kSubst, 0);
          }
        }
        relax(next[j], cost + 1, matches, kDelete, 0);
      }
      if (j < q) relax(row[j + 1], cost + 1, matches, kInsert, 0);
    }
  }

  const Cell& last = dp[static_cast<size_t>(t) * width + q];
  if (last.cost >= kInf) return std::nullopt;

  // Backtrack: collect slot phrases and coverage.
  TokenAlignment result;
  result.cost = last.cost;
  result.slot_phrases.assign(num_slots, "");
  int covered = 0;
  int i = t;
  int j = q;
  while (i > 0 || j > 0) {
    const Cell& cell = dp[static_cast<size_t>(i) * width + j];
    switch (cell.move) {
      case kMatch:
        ++covered;
        --i;
        --j;
        break;
      case kSubst:
        --i;
        --j;
        break;
      case kSlot: {
        std::string phrase;
        for (int k = j - cell.consumed; k < j; ++k) {
          if (!phrase.empty()) phrase += ' ';
          phrase += question_tokens[k];
        }
        covered += cell.consumed;
        // Slot index from the marker "<slotK>".
        const std::string& marker = template_tokens[i - 1];
        int slot_index =
            std::atoi(marker.substr(5, marker.size() - 6).c_str());
        if (slot_index >= 0 && slot_index < num_slots) {
          result.slot_phrases[slot_index] = phrase;
        }
        j -= cell.consumed;
        --i;
        break;
      }
      case kDelete:
        --i;
        break;
      case kInsert:
        --j;
        break;
      default:
        SIMJ_CHECK(false);
    }
  }
  for (const std::string& phrase : result.slot_phrases) {
    if (phrase.empty()) return std::nullopt;  // a slot captured nothing
  }
  result.matching_proportion =
      q == 0 ? 0.0 : static_cast<double>(covered) / static_cast<double>(q);
  return result;
}

std::optional<TokenAlignment> AlignTokens(
    const std::vector<std::string>& template_tokens, int num_slots,
    const std::vector<std::string>& question_tokens,
    const std::function<bool(const std::string&)>* slot_validator) {
  return AlignTokens(template_tokens, num_slots,
                     PrepareAlignQuestion(question_tokens, slot_validator));
}

}  // namespace simj::nlp
