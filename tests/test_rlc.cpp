// Unit tests for src/rlc: header codec, UM segmentation/reassembly, AM ARQ,
// TM passthrough, and the queue instrumentation behind Table 2's RLC-q.

#include <gtest/gtest.h>

#include <vector>

#include "rlc/rlc_entity.hpp"
#include "rlc/rlc_pdu.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

ByteBuffer payload(std::size_t n, std::uint8_t seed = 1) {
  ByteBuffer b(n);
  auto bytes = b.bytes();
  for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<std::uint8_t>(seed + i);
  return b;
}

bool same_bytes(const ByteBuffer& a, const ByteBuffer& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.bytes()[i] != b.bytes()[i]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Header codec

struct HeaderCase {
  SegmentInfo si;
  std::uint16_t sn;
  std::uint16_t so;
  bool poll;
};

class RlcHeaderTest : public ::testing::TestWithParam<HeaderCase> {};

TEST_P(RlcHeaderTest, EncodeDecodeRoundTrip) {
  const auto& c = GetParam();
  ByteBuffer pdu = payload(5);
  RlcHeader h{c.si, c.sn, c.so, c.poll};
  h.encode(pdu);
  EXPECT_EQ(pdu.size(), 5 + h.encoded_size());

  const auto back = RlcHeader::decode(pdu);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->si, c.si);
  EXPECT_EQ(back->sn, c.sn);
  EXPECT_EQ(back->poll, c.poll);
  if (h.needs_so()) {
    EXPECT_EQ(back->so, c.so);
  }
  EXPECT_EQ(pdu.size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RlcHeaderTest,
    ::testing::Values(HeaderCase{SegmentInfo::Complete, 0, 0, false},
                      HeaderCase{SegmentInfo::Complete, 4095, 0, true},
                      HeaderCase{SegmentInfo::First, 17, 0, false},
                      HeaderCase{SegmentInfo::Middle, 100, 5'000, false},
                      HeaderCase{SegmentInfo::Last, 2'222, 65'000, true}));

TEST(RlcHeaderTest, TruncatedDecode) {
  ByteBuffer one(1);
  EXPECT_FALSE(RlcHeader::decode(one).has_value());
  // Middle header claims an SO but the buffer ends after the SN.
  ByteBuffer two(2);
  two.bytes()[0] = static_cast<std::uint8_t>(static_cast<int>(SegmentInfo::Middle) << 6);
  EXPECT_FALSE(RlcHeader::decode(two).has_value());
}

// ---------------------------------------------------------------------------
// UM: complete PDUs

TEST(RlcUmTest, CompleteSduRoundTrip) {
  RlcTx tx(RlcMode::UM);
  RlcRx rx(RlcMode::UM);
  tx.enqueue(payload(50), 10_us);
  const auto pdu = tx.pull(100);
  ASSERT_TRUE(pdu.has_value());
  EXPECT_EQ(pdu->sdu_enqueued_at, 10_us);
  EXPECT_FALSE(pdu->is_retransmission);

  std::vector<ByteBuffer> out;
  rx.receive(std::move(const_cast<ByteBuffer&>(pdu->pdu)), [&](ByteBuffer&& s, const PacketMeta&) {
    out.push_back(std::move(s));
  });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(same_bytes(out[0], payload(50)));
}

TEST(RlcUmTest, PullEmptyQueue) {
  RlcTx tx(RlcMode::UM);
  EXPECT_FALSE(tx.pull(100).has_value());
  EXPECT_FALSE(tx.has_data());
}

TEST(RlcUmTest, PullTooSmallGrant) {
  RlcTx tx(RlcMode::UM);
  tx.enqueue(payload(50), 0_ns);
  EXPECT_FALSE(tx.pull(4).has_value());  // cannot fit header + 1 byte
  EXPECT_TRUE(tx.has_data());            // data stays queued
}

TEST(RlcUmTest, QueueAccounting) {
  RlcTx tx(RlcMode::UM);
  tx.enqueue(payload(30), 1_us);
  tx.enqueue(payload(70), 2_us);
  EXPECT_EQ(tx.queued_sdus(), 2u);
  EXPECT_EQ(tx.queued_bytes(), 100u);
  EXPECT_EQ(tx.head_enqueued_at(), 1_us);
  (void)tx.pull(200);
  EXPECT_EQ(tx.queued_sdus(), 1u);
  EXPECT_EQ(tx.head_enqueued_at(), 2_us);
}

TEST(RlcUmTest, SnAdvancesPerSdu) {
  RlcTx tx(RlcMode::UM);
  tx.enqueue(payload(10), 0_ns);
  tx.enqueue(payload(10), 0_ns);
  const auto p1 = tx.pull(100);
  const auto p2 = tx.pull(100);
  ASSERT_TRUE(p1 && p2);
  EXPECT_EQ(p2->sn, static_cast<std::uint16_t>(p1->sn + 1));
}

// ---------------------------------------------------------------------------
// UM: segmentation

class SegmentationTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SegmentationTest, ReassembledEqualsOriginal) {
  const auto [sdu_size, grant] = GetParam();
  RlcTx tx(RlcMode::UM);
  RlcRx rx(RlcMode::UM);
  tx.enqueue(payload(static_cast<std::size_t>(sdu_size), 0x30), 0_ns);

  std::vector<ByteBuffer> out;
  int pdus = 0;
  while (auto pdu = tx.pull(static_cast<std::size_t>(grant))) {
    ++pdus;
    rx.receive(std::move(pdu->pdu), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
    ASSERT_LT(pdus, 1000) << "segmentation does not terminate";
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(same_bytes(out[0], payload(static_cast<std::size_t>(sdu_size), 0x30)));
  if (sdu_size + 2 > grant) {
    EXPECT_GT(pdus, 1);  // it really segmented
  }
  EXPECT_EQ(rx.pending_reassemblies(), 0u);
}

INSTANTIATE_TEST_SUITE_P(SizesByGrants, SegmentationTest,
                         ::testing::Combine(::testing::Values(10, 64, 100, 1000, 1500),
                                            ::testing::Values(16, 40, 64, 128, 1600)));

TEST(SegmentationTest, OutOfOrderSegmentsReassemble) {
  RlcTx tx(RlcMode::UM);
  RlcRx rx(RlcMode::UM);
  tx.enqueue(payload(100, 0x11), 0_ns);
  std::vector<ByteBuffer> pdus;
  while (auto p = tx.pull(40)) pdus.push_back(std::move(p->pdu));
  ASSERT_GE(pdus.size(), 3u);

  std::vector<ByteBuffer> out;
  // Deliver in reverse order.
  for (auto it = pdus.rbegin(); it != pdus.rend(); ++it) {
    rx.receive(std::move(*it), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(same_bytes(out[0], payload(100, 0x11)));
}

TEST(SegmentationTest, DuplicateSegmentIgnored) {
  RlcTx tx(RlcMode::UM);
  RlcRx rx(RlcMode::UM);
  tx.enqueue(payload(100, 0x22), 0_ns);
  std::vector<ByteBuffer> pdus;
  while (auto p = tx.pull(40)) pdus.push_back(std::move(p->pdu));

  std::vector<ByteBuffer> out;
  ByteBuffer dup = pdus[0];
  rx.receive(std::move(pdus[0]), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  rx.receive(std::move(dup), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  for (std::size_t i = 1; i < pdus.size(); ++i) {
    rx.receive(std::move(pdus[i]), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(same_bytes(out[0], payload(100, 0x22)));
}

TEST(SegmentationTest, MissingSegmentHoldsReassembly) {
  RlcTx tx(RlcMode::UM);
  RlcRx rx(RlcMode::UM);
  tx.enqueue(payload(100, 0x33), 0_ns);
  std::vector<ByteBuffer> pdus;
  while (auto p = tx.pull(40)) pdus.push_back(std::move(p->pdu));
  ASSERT_GE(pdus.size(), 3u);

  std::vector<ByteBuffer> out;
  // Drop the middle segment.
  rx.receive(std::move(pdus.front()), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  rx.receive(std::move(pdus.back()), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(rx.pending_reassemblies(), 1u);
}

// ---------------------------------------------------------------------------
// AM: ARQ

TEST(RlcAmTest, StatusReportsNackForMissingSn) {
  RlcTx tx(RlcMode::AM);
  RlcRx rx(RlcMode::AM);
  for (int i = 0; i < 3; ++i) tx.enqueue(payload(20, static_cast<std::uint8_t>(i)), 0_ns);
  std::vector<ByteBuffer> pdus;
  while (auto p = tx.pull(64)) pdus.push_back(std::move(p->pdu));
  ASSERT_EQ(pdus.size(), 3u);

  std::vector<ByteBuffer> out;
  rx.receive(std::move(pdus[0]), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  // pdus[1] lost.
  rx.receive(std::move(pdus[2]), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });

  const auto st = rx.build_status();
  EXPECT_EQ(st.ack_sn, 3);
  ASSERT_EQ(st.nacks.size(), 1u);
  EXPECT_EQ(st.nacks[0], 1);
}

TEST(RlcAmTest, NackTriggersRetransmission) {
  RlcTx tx(RlcMode::AM);
  for (int i = 0; i < 2; ++i) tx.enqueue(payload(20, static_cast<std::uint8_t>(i)), 0_ns);
  auto p0 = tx.pull(64);
  auto p1 = tx.pull(64);
  ASSERT_TRUE(p0 && p1);
  EXPECT_EQ(tx.unacked_pdus(), 2u);

  tx.on_status(2, {1});  // SN 0 ACKed, SN 1 NACKed
  EXPECT_EQ(tx.unacked_pdus(), 1u);
  const auto retx = tx.pull(64);
  ASSERT_TRUE(retx.has_value());
  EXPECT_TRUE(retx->is_retransmission);
  EXPECT_EQ(retx->sn, 1);
}

TEST(RlcAmTest, AckClearsRetransmissionBuffer) {
  RlcTx tx(RlcMode::AM);
  tx.enqueue(payload(20), 0_ns);
  (void)tx.pull(64);
  EXPECT_EQ(tx.unacked_pdus(), 1u);
  tx.on_status(1, {});
  EXPECT_EQ(tx.unacked_pdus(), 0u);
  EXPECT_FALSE(tx.pull(64).has_value());  // nothing to retransmit
}

TEST(RlcAmTest, RetransmittedPduDeliversCorrectly) {
  RlcTx tx(RlcMode::AM);
  RlcRx rx(RlcMode::AM);
  tx.enqueue(payload(20, 0x55), 0_ns);
  auto p = tx.pull(64);
  ASSERT_TRUE(p.has_value());
  // First copy lost; status NACKs it; the retransmission delivers.
  tx.on_status(1, {0});
  auto retx = tx.pull(64);
  ASSERT_TRUE(retx.has_value());
  std::vector<ByteBuffer> out;
  rx.receive(std::move(retx->pdu), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(same_bytes(out[0], payload(20, 0x55)));
}

TEST(RlcAmTest, StatusIgnoredInUmMode) {
  RlcTx tx(RlcMode::UM);
  tx.enqueue(payload(20), 0_ns);
  (void)tx.pull(64);
  tx.on_status(1, {0});
  EXPECT_FALSE(tx.pull(64).has_value());  // UM never retransmits
}

// ---------------------------------------------------------------------------
// TM

TEST(RlcTmTest, Passthrough) {
  RlcTx tx(RlcMode::TM);
  RlcRx rx(RlcMode::TM);
  tx.enqueue(payload(40, 0x66), 0_ns);
  auto p = tx.pull(100);
  ASSERT_TRUE(p.has_value());
  std::vector<ByteBuffer> out;
  rx.receive(std::move(p->pdu), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(same_bytes(out[0], payload(40, 0x66)));
}

}  // namespace
}  // namespace u5g
