#include "cluster/cluster_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace mimdmap {
namespace {

TEST(ClusterIoTest, RoundTrip) {
  const Clustering original({0, 2, 1, 2, 0}, 3);
  const Clustering parsed = clustering_from_text(to_text(original));
  EXPECT_EQ(parsed.num_tasks(), 5);
  EXPECT_EQ(parsed.num_clusters(), 3);
  EXPECT_EQ(parsed.cluster_map(), original.cluster_map());
}

TEST(ClusterIoTest, EmptyClustersSurviveRoundTrip) {
  const Clustering original({0, 0}, 4);
  const Clustering parsed = clustering_from_text(to_text(original));
  EXPECT_EQ(parsed.num_clusters(), 4);
  EXPECT_EQ(parsed.non_empty_clusters(), 1);
}

TEST(ClusterIoTest, CommentsAndBlanksIgnored) {
  const std::string text =
      "# the partition\nclustering 2 2\n\ntask 0 1\n# middle\ntask 1 0\n";
  const Clustering parsed = clustering_from_text(text);
  EXPECT_EQ(parsed.cluster_of(0), 1);
  EXPECT_EQ(parsed.cluster_of(1), 0);
}

TEST(ClusterIoTest, RejectsBadHeader) {
  EXPECT_THROW(clustering_from_text("partition 2 2\n"), std::invalid_argument);
  EXPECT_THROW(clustering_from_text(""), std::invalid_argument);
}

TEST(ClusterIoTest, RejectsNonConsecutiveIds) {
  EXPECT_THROW(clustering_from_text("clustering 2 2\ntask 0 0\ntask 2 1\n"),
               std::invalid_argument);
}

TEST(ClusterIoTest, RejectsTruncatedInput) {
  EXPECT_THROW(clustering_from_text("clustering 3 2\ntask 0 0\n"), std::invalid_argument);
}

TEST(ClusterIoTest, RejectsOutOfRangeCluster) {
  EXPECT_THROW(clustering_from_text("clustering 1 2\ntask 0 5\n"), std::invalid_argument);
}

TEST(ClusterIoTest, HeaderCountIsNotSizedBeforeItsLines) {
  // Allocating the promised two billion tasks up front would take 8 GB.
  try {
    (void)clustering_from_text("clustering 2000000000 2\ntask 0 0\n");
    FAIL() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "cluster_io: line 2: unexpected EOF in task list");
  }
}

TEST(ClusterIoTest, StreamReaderMatchesTextParser) {
  const Clustering original({1, 0, 1}, 2);
  std::istringstream text(to_text(original));
  EXPECT_EQ(read_clustering(text).cluster_map(), original.cluster_map());
}

}  // namespace
}  // namespace mimdmap
