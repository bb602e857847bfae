// Unit tests for the batched SoA distance substrate (core/packed_set.h):
// the packed bit-matrix layout (padding, counts, tail handling at every
// awkward universe size), the multi-versioned popcount primitive, and
// bit-identity of DistanceFromCounts against the scalar VectorDistance
// reference for every DistanceKind. The kernel-level batched-vs-scalar
// sweeps are covered end to end in assign/batched_kernel_equivalence_test.
#include "core/packed_set.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/keyword_vector.h"
#include "util/rng.h"

namespace hta {
namespace {

// Universe sizes that stress the tail block: a 1-bit universe, one bit
// short of a block, exact block boundaries, and one bit past them.
const size_t kAwkwardUniverses[] = {1, 63, 64, 65, 127};

KeywordVector RandomVector(size_t universe, size_t bits, Rng* rng) {
  KeywordVector v(universe);
  for (size_t b = 0; b < bits; ++b) {
    v.Set(static_cast<KeywordId>(rng->NextBounded(universe)));
  }
  return v;
}

TEST(KeywordVectorTailTest, MutatorsPreserveTailInvariantAtEveryUniverse) {
  for (const size_t universe : kAwkwardUniverses) {
    KeywordVector v(universe);
    // Walk every bit up and down; after each mutation the bits at
    // positions >= universe in the last block must stay zero (the
    // invariant every popcount kernel relies on).
    const auto expect_tail_zero = [&] {
      const size_t tail = universe & 63;
      if (tail != 0) {
        EXPECT_EQ(v.blocks().back() >> tail, 0u) << "universe " << universe;
      }
    };
    for (size_t id = 0; id < universe; ++id) {
      v.Set(static_cast<KeywordId>(id));
      expect_tail_zero();
    }
    EXPECT_EQ(v.Count(), universe);
    for (size_t id = 0; id < universe; ++id) {
      v.Clear(static_cast<KeywordId>(id));
      expect_tail_zero();
    }
    EXPECT_TRUE(v.Empty());
  }
}

TEST(KeywordVectorTailTest, EmptyVectorsHaveZeroBlocksAtEveryUniverse) {
  for (const size_t universe : kAwkwardUniverses) {
    const KeywordVector v(universe);
    EXPECT_EQ(v.blocks().size(), (universe + 63) / 64);
    for (const uint64_t b : v.blocks()) EXPECT_EQ(b, 0u);
    EXPECT_TRUE(v.Empty());
  }
  EXPECT_TRUE(KeywordVector(0).blocks().empty());
}

TEST(PackedSetMatrixTest, ShapePadsRowsToBlockPadMultiple) {
  for (const size_t universe : kAwkwardUniverses) {
    Rng rng(universe);
    std::vector<KeywordVector> vecs;
    for (int r = 0; r < 5; ++r) {
      vecs.push_back(RandomVector(universe, 1 + rng.NextBounded(universe), &rng));
    }
    const PackedSetMatrix m = PackedSetMatrix::FromVectors(vecs);
    ASSERT_EQ(m.rows(), vecs.size());
    EXPECT_EQ(m.universe_size(), universe);
    EXPECT_EQ(m.row_blocks() % PackedSetMatrix::kBlockPad, 0u);
    EXPECT_GE(m.row_blocks(), (universe + 63) / 64);
    for (size_t r = 0; r < m.rows(); ++r) {
      const uint64_t* row = m.row(r);
      const std::vector<uint64_t>& src = vecs[r].blocks();
      // Data blocks copied verbatim, padding blocks zero.
      for (size_t k = 0; k < m.row_blocks(); ++k) {
        EXPECT_EQ(row[k], k < src.size() ? src[k] : 0u)
            << "universe " << universe << " row " << r << " block " << k;
      }
      EXPECT_EQ(m.count(r), vecs[r].Count());
    }
  }
}

TEST(PackedSetMatrixTest, EmptyCollections) {
  const PackedSetMatrix none = PackedSetMatrix::FromVectors({});
  EXPECT_EQ(none.rows(), 0u);
  EXPECT_EQ(none.row_blocks(), 0u);

  // All-empty vectors still pack (zero rows of zero bits set).
  const std::vector<KeywordVector> empties(3, KeywordVector(65));
  const PackedSetMatrix m = PackedSetMatrix::FromVectors(empties);
  ASSERT_EQ(m.rows(), 3u);
  for (size_t r = 0; r < 3; ++r) EXPECT_EQ(m.count(r), 0u);
}

TEST(PackedSetMatrixTest, IntersectRowCountsMatchesKeywordVector) {
  Rng rng(7);
  for (const size_t universe : {size_t{65}, size_t{200}, size_t{1000}}) {
    std::vector<KeywordVector> vecs;
    for (int r = 0; r < 40; ++r) {
      vecs.push_back(RandomVector(universe, rng.NextBounded(universe / 2), &rng));
    }
    const PackedSetMatrix m = PackedSetMatrix::FromVectors(vecs);
    const KeywordVector probe = RandomVector(universe, universe / 3, &rng);
    const PackedSetMatrix pm = PackedSetMatrix::FromVectors({probe});
    std::vector<uint32_t> counts(m.rows());
    packed_internal::IntersectRowCounts(pm.row(0), m.row(0), m.row_blocks(),
                                        m.rows(), counts.data());
    for (size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(counts[r], KeywordVector::IntersectionCount(probe, vecs[r]))
          << "universe " << universe << " row " << r;
    }
  }
}

TEST(PackedSetDistanceTest, DistanceFromCountsBitIdenticalToScalar) {
  const DistanceKind kinds[] = {DistanceKind::kJaccard, DistanceKind::kDice,
                                DistanceKind::kHamming,
                                DistanceKind::kCosineAngular};
  Rng rng(13);
  for (const size_t universe : kAwkwardUniverses) {
    std::vector<KeywordVector> vecs;
    // Include empty vectors so the empty/empty and empty/nonempty
    // special cases of every kind are exercised.
    vecs.push_back(KeywordVector(universe));
    vecs.push_back(KeywordVector(universe));
    for (int r = 0; r < 20; ++r) {
      vecs.push_back(RandomVector(universe, 1 + rng.NextBounded(universe), &rng));
    }
    for (const DistanceKind kind : kinds) {
      for (size_t i = 0; i < vecs.size(); ++i) {
        for (size_t j = 0; j < vecs.size(); ++j) {
          const size_t inter = KeywordVector::IntersectionCount(vecs[i], vecs[j]);
          const size_t ca = vecs[i].Count();
          const size_t cb = vecs[j].Count();
          const double batched = packed_internal::WithKind(kind, [&](auto tag) {
            return packed_internal::DistanceFromCounts<decltype(tag)::value>(
                inter, ca, cb, universe);
          });
          // Bit-identical, not approximately equal: the batched kernels
          // must be a drop-in for the scalar path.
          EXPECT_EQ(batched, VectorDistance(kind, vecs[i], vecs[j]))
              << DistanceKindName(kind) << " universe " << universe << " ("
              << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(PackedSetKernelTest, RectangularRelevanceMatchesScalar) {
  Rng rng(23);
  std::vector<KeywordVector> a_vecs;
  std::vector<KeywordVector> b_vecs;
  for (int r = 0; r < 50; ++r) a_vecs.push_back(RandomVector(99, 10, &rng));
  for (int r = 0; r < 7; ++r) b_vecs.push_back(RandomVector(99, 15, &rng));
  const PackedSetMatrix a = PackedSetMatrix::FromVectors(a_vecs);
  const PackedSetMatrix b = PackedSetMatrix::FromVectors(b_vecs);
  std::vector<double> out(a_vecs.size() * b_vecs.size());
  RectangularRelevance(a, b, DistanceKind::kJaccard, out.data());
  for (size_t i = 0; i < a_vecs.size(); ++i) {
    for (size_t j = 0; j < b_vecs.size(); ++j) {
      EXPECT_EQ(out[i * b_vecs.size() + j],
                1.0 - VectorDistance(DistanceKind::kJaccard, a_vecs[i],
                                     b_vecs[j]))
          << "(" << i << ", " << j << ")";
    }
  }
  // Either side empty: a no-op, not a crash.
  RectangularRelevance(PackedSetMatrix(), b, DistanceKind::kJaccard,
                       out.data());
  RectangularRelevance(a, PackedSetMatrix(), DistanceKind::kJaccard,
                       out.data());
}

TEST(PackedSetKernelTest, EmitPositiveDistancesFiltersAndOrders) {
  Rng rng(29);
  std::vector<KeywordVector> vecs;
  const size_t n = 300;  // > kCountTile, so multiple tiles per row.
  for (size_t r = 0; r < n; ++r) {
    vecs.push_back(RandomVector(64, 1 + rng.NextBounded(8), &rng));
  }
  // Duplicate some rows so zero-distance pairs exist and the filter has
  // something to drop.
  vecs[5] = vecs[4];
  vecs[200] = vecs[4];
  const PackedSetMatrix m = PackedSetMatrix::FromVectors(vecs);
  for (const size_t i : {size_t{0}, size_t{4}, n - 2}) {
    std::vector<std::pair<size_t, float>> emitted;
    EmitPositiveDistancesInRow(m, i, DistanceKind::kJaccard,
                               [&](size_t j, float w) {
                                 emitted.emplace_back(j, w);
                               });
    std::vector<std::pair<size_t, float>> expected;
    for (size_t j = i + 1; j < n; ++j) {
      const float w = static_cast<float>(
          VectorDistance(DistanceKind::kJaccard, vecs[i], vecs[j]));
      if (w > 0.0f) expected.emplace_back(j, w);
    }
    EXPECT_EQ(emitted, expected) << "row " << i;
  }
}

#ifndef NDEBUG
TEST(PackedSetMatrixDeathTest, MixedUniversesAbortInDebug) {
  std::vector<KeywordVector> vecs;
  vecs.push_back(KeywordVector(64, {1}));
  vecs.push_back(KeywordVector(65, {1}));
  EXPECT_DEATH({ PackedSetMatrix::FromVectors(vecs); }, "CHECK failed");
}
#endif

}  // namespace
}  // namespace hta
