#include "parallel/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "net/inproc.hpp"
#include "support/error.hpp"

namespace scmd {
namespace {

TEST(PackTest, RoundTripsTrivialTypes) {
  const std::vector<int> v{1, -2, 3};
  EXPECT_EQ(unpack<int>(pack(v)), v);
  const std::vector<double> d{1.5, -2.25};
  EXPECT_EQ(unpack<double>(pack(d)), d);
  EXPECT_TRUE(unpack<int>(pack(std::vector<int>{})).empty());
}

TEST(PackTest, UnpackRejectsMisalignedPayload) {
  // A truncated or corrupted frame must fail loudly, not silently drop
  // the tail bytes.
  Bytes bytes(sizeof(double) * 2 + 1);
  EXPECT_THROW(unpack<double>(bytes), Error);
  EXPECT_THROW(unpack<int>(Bytes(3)), Error);
  EXPECT_TRUE(unpack<int>(Bytes{}).empty());
}

TEST(ClusterTest, PointToPointDelivery) {
  run_cluster(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, pack(std::vector<int>{42}));
    } else {
      const auto v = unpack<int>(comm.recv(0, 7));
      ASSERT_EQ(v.size(), 1u);
      EXPECT_EQ(v[0], 42);
    }
  });
}

TEST(ClusterTest, SelfSendWorks) {
  run_cluster(1, [](Comm& comm) {
    comm.send(0, 3, pack(std::vector<int>{5}));
    EXPECT_EQ(unpack<int>(comm.recv(0, 3))[0], 5);
  });
}

TEST(ClusterTest, OrderPreservedPerChannel) {
  run_cluster(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i) comm.send(1, 1, pack(std::vector<int>{i}));
    } else {
      for (int i = 0; i < 20; ++i)
        EXPECT_EQ(unpack<int>(comm.recv(0, 1))[0], i);
    }
  });
}

TEST(ClusterTest, TagsSeparateStreams) {
  run_cluster(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, pack(std::vector<int>{10}));
      comm.send(1, 2, pack(std::vector<int>{20}));
    } else {
      // Receive in reverse tag order.
      EXPECT_EQ(unpack<int>(comm.recv(0, 2))[0], 20);
      EXPECT_EQ(unpack<int>(comm.recv(0, 1))[0], 10);
    }
  });
}

TEST(ClusterTest, AllReduceSum) {
  for (int P : {1, 2, 4, 7}) {
    run_cluster(P, [P](Comm& comm) {
      const double sum = comm.allreduce_sum(comm.rank() + 1.0);
      EXPECT_DOUBLE_EQ(sum, P * (P + 1) / 2.0);
    });
  }
}

TEST(ClusterTest, AllReduceMax) {
  run_cluster(5, [](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())),
                     4.0);
  });
}

TEST(ClusterTest, RepeatedCollectivesStayInSync) {
  run_cluster(4, [](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      const double s = comm.allreduce_sum(1.0);
      EXPECT_DOUBLE_EQ(s, 4.0);
    }
  });
}

TEST(ClusterTest, BarrierSeparatesPhases) {
  std::atomic<int> phase1_count{0};
  run_cluster(4, [&](Comm& comm) {
    phase1_count.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(phase1_count.load(), 4);
  });
}

TEST(ClusterTest, ExceptionInRankPropagates) {
  EXPECT_THROW(run_cluster(1,
                           [](Comm&) {
                             throw Error("rank failure");
                           }),
               Error);
}

TEST(ClusterTest, StatsCountMessagesAndBytes) {
  Cluster cluster(2);
  Comm c0(cluster.transport(0));
  c0.send(1, 0, Bytes(16));
  c0.send(1, 0, Bytes(8));
  EXPECT_EQ(cluster.transport(0).stats().messages_sent, 2u);
  EXPECT_EQ(cluster.transport(0).stats().bytes_sent, 24u);
}

TEST(ClusterTest, MailboxHighWaterTracksBacklog) {
  // The unbounded-mailbox assumption made visible: the watermark is the
  // deepest any rank's queue of undelivered messages ever got.
  Cluster cluster(2);
  Comm c0(cluster.transport(0));
  Comm c1(cluster.transport(1));
  for (int i = 0; i < 5; ++i) c0.send(1, 1, Bytes(4));
  for (int i = 0; i < 5; ++i) c1.recv(0, 1);
  c0.send(1, 1, Bytes(4));  // depth never exceeds 5 again
  c1.recv(0, 1);
  EXPECT_EQ(cluster.mailbox_high_water(1), 5u);
  EXPECT_EQ(cluster.mailbox_high_water(0), 0u);
  // The per-endpoint statistics view agrees.
  EXPECT_EQ(cluster.transport(1).stats().max_mailbox_depth, 5u);
  EXPECT_EQ(cluster.transport(0).stats().messages_sent, 6u);
  EXPECT_EQ(cluster.transport(1).stats().messages_received, 6u);
}

TEST(ClusterTest, RejectsInvalidRanks) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.send(0, 5, 0, Bytes{}), Error);
  EXPECT_THROW(Cluster(0), Error);
}

}  // namespace
}  // namespace scmd
