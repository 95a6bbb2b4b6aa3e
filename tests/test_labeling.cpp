// Labeling-scheme tests: English-Hebrew and offset-span must agree with
// the LCA oracle on the corpus, and their label sizes must exhibit the
// Figure 3 asymptotics — Theta(f) bits for English-Hebrew on spawn
// chains, Theta(d) pairs for offset-span (flat when nesting is bounded,
// exploding when d = f).

#include <gtest/gtest.h>

#include <algorithm>

#include "labeling/english_hebrew.hpp"
#include "labeling/offset_span.hpp"
#include "sp_test_util.hpp"

namespace {

using spr::label::EnglishHebrew;
using spr::label::OffsetSpan;
using spr::testutil::corpus;
using spr::testutil::expect_matches_oracle_post_walk;

TEST(EnglishHebrew, MatchesOracleOnCorpus) {
  for (const auto& p : corpus()) {
    EnglishHebrew algo(p.tree);
    expect_matches_oracle_post_walk(p.tree, algo, p.name);
  }
}

TEST(OffsetSpan, MatchesOracleOnCorpus) {
  for (const auto& p : corpus()) {
    OffsetSpan algo(p.tree);
    expect_matches_oracle_post_walk(p.tree, algo, p.name);
  }
}

template <typename Algo>
Algo walked(const spr::tree::ParseTree& t) {
  Algo algo(t);
  serial_walk(t, algo);
  return algo;
}

std::uint32_t max_bits(const EnglishHebrew& a, const spr::tree::ParseTree& t) {
  std::uint32_t mx = 0;
  for (spr::tree::ThreadId u = 0; u < t.leaf_count(); ++u)
    mx = std::max(mx, a.label_bits(u));
  return mx;
}

std::uint32_t max_pairs(const OffsetSpan& a, const spr::tree::ParseTree& t) {
  std::uint32_t mx = 0;
  for (spr::tree::ThreadId u = 0; u < t.leaf_count(); ++u)
    mx = std::max(mx, a.label_pairs(u));
  return mx;
}

TEST(Labeling, SpawnChainExplodesBothSchemes) {
  // loop_spawn(64): one sync block of 64 spawns binarizes to a P-chain of
  // nesting depth 63 — d = f, the case where both label families grow.
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_loop_spawn(64));
  const auto eh = walked<EnglishHebrew>(t);
  const auto os = walked<OffsetSpan>(t);
  EXPECT_GE(max_bits(eh, t), 63u);
  EXPECT_GE(max_pairs(os, t), 32u);
}

TEST(Labeling, BoundedNestingKeepsOffsetSpanFlat) {
  // loop_sync(200, 4): 50 sequential blocks of 4 spawns. f = ~200 forks
  // but d <= 3, so offset-span labels stay tiny while the spawn-chain
  // case above needed tens of pairs.
  const auto t =
      spr::fj::lower_to_parse_tree(spr::fj::make_loop_sync(200, 4));
  const auto os = walked<OffsetSpan>(t);
  EXPECT_LE(max_pairs(os, t), 6u);
}

TEST(Labeling, BalancedTreeLabelsTrackDepth) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_balanced(6));
  const auto eh = walked<EnglishHebrew>(t);
  const auto os = walked<OffsetSpan>(t);
  // Depth-6 binary spawn tree: paths are 6 nodes, labels ~2x6 bits and
  // at most 7 offset-span pairs.
  EXPECT_LE(max_bits(eh, t), 16u);
  EXPECT_LE(max_pairs(os, t), 8u);
}

TEST(Labeling, MemoryAccountingIsPositive) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(8));
  const auto eh = walked<EnglishHebrew>(t);
  const auto os = walked<OffsetSpan>(t);
  EXPECT_GT(eh.memory_bytes(), sizeof(EnglishHebrew));
  EXPECT_GT(os.memory_bytes(), sizeof(OffsetSpan));
}

}  // namespace
