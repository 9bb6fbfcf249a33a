// Syntactic dependency trees and tree edit distance (paper Section 2.2).
//
// The paper aligns a new question to a template's natural-language part by
// parsing both into dependency trees (Stanford parser in the paper, a
// deterministic shallow parser here — the tree shape is derived from the
// semantic relations) and finding the template with minimum tree edit
// distance. Slot filling then maps question phrases onto the template's
// slots; we do that with a token-level alignment DP that also yields the
// paper's matching proportion phi.

#ifndef SIMJ_NLP_DEPENDENCY_H_
#define SIMJ_NLP_DEPENDENCY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nlp/semantic_graph.h"

namespace simj::nlp {

// Token that matches any label/token at zero cost in trees and alignments.
inline constexpr const char* kSlotMarker = "<slot>";

struct DepTree {
  struct Node {
    std::string label;
    std::vector<int> children;
  };
  std::vector<Node> nodes;
  int root = -1;

  int size() const { return static_cast<int>(nodes.size()); }
};

// Deterministic dependency tree over the parsed question: the wh-argument
// is the root; each relation phrase depends on its first argument and
// governs its second.
DepTree BuildQuestionTree(const ParsedQuestion& question);

// Copy of `tree` with every node whose label appears in `slot_phrases`
// relabeled to kSlotMarker (the template side of the alignment).
DepTree SlottedTree(const DepTree& tree,
                    const std::vector<std::string>& slot_phrases);

// Zhang-Shasha ordered tree edit distance with unit costs; relabeling to or
// from kSlotMarker is free.
int TreeEditDistance(const DepTree& a, const DepTree& b);

struct TokenAlignment {
  // Edit cost outside slots (substitutions + insertions + deletions).
  int cost = 0;
  // phi: fraction of question tokens covered by the template (exact
  // matches plus slot-consumed tokens).
  double matching_proportion = 0.0;
  // Question phrase captured by each slot, indexed by slot number.
  std::vector<std::string> slot_phrases;
};

// Longest question span, in tokens, that one slot may capture.
inline constexpr int kMaxSlotTokens = 3;

class AlignQuestion;

// Prepares `question_tokens` for alignment. A slot may capture a span of
// one to kMaxSlotTokens tokens; when `slot_validator` is provided, only the
// spans it accepts (TemplateQa passes a lexicon lookup, so slots only
// capture linkable phrases). The validator runs once per span.
AlignQuestion PrepareAlignQuestion(
    std::vector<std::string> question_tokens,
    const std::function<bool(const std::string&)>* slot_validator = nullptr);

// Aligns template tokens (containing "<slot0>", "<slot1>", ... markers;
// each slot consumes a capturable question span at zero cost) against a
// prepared question. Ties in edit cost are broken toward more exact token
// matches, which keeps slot spans tight. Returns std::nullopt when no valid
// alignment exists.
std::optional<TokenAlignment> AlignTokens(
    const std::vector<std::string>& template_tokens, int num_slots,
    const AlignQuestion& question);

// The question side of AlignTokens, prepared once per question and shared
// by every template aligned against it: the tokens, which spans a slot may
// capture, and the DP scratch. Alignment mutates the scratch, so one
// AlignQuestion serves one thread. Only PrepareAlignQuestion builds one;
// having no default constructor also keeps a braced question argument,
// as in AlignTokens(tokens, 1, {}), bound to the token-vector overload.
class AlignQuestion {
 private:
  friend AlignQuestion PrepareAlignQuestion(
      std::vector<std::string> question_tokens,
      const std::function<bool(const std::string&)>* slot_validator);
  friend std::optional<TokenAlignment> AlignTokens(
      const std::vector<std::string>& template_tokens, int num_slots,
      const AlignQuestion& question);

  explicit AlignQuestion(std::vector<std::string> tokens)
      : tokens_(std::move(tokens)) {}

  // One DP cell: the best (cost, matches) reaching it and the move that did.
  struct Cell {
    int cost;
    int matches;  // exact token matches along the best path
    uint8_t move;
    uint8_t consumed;  // for a slot move: question tokens consumed
  };

  std::vector<std::string> tokens_;
  // linkable_[j * kMaxSlotTokens + (len - 1)] != 0 when a slot may capture
  // the len tokens starting at question position j.
  std::vector<uint8_t> linkable_;
  // Flat (template tokens + 1) x (question tokens + 1) table, row-major;
  // reused across templates.
  mutable std::vector<Cell> dp_;
};

// One-off form: prepares `question_tokens` and aligns one template.
std::optional<TokenAlignment> AlignTokens(
    const std::vector<std::string>& template_tokens, int num_slots,
    const std::vector<std::string>& question_tokens,
    const std::function<bool(const std::string&)>* slot_validator = nullptr);

}  // namespace simj::nlp

#endif  // SIMJ_NLP_DEPENDENCY_H_
