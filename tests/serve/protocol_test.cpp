// Framing and validation tests for the daemon admission protocol
// (serve/protocol.hpp): round trips, incremental feeding, and one explicit
// rejection per grammar rule — every rejection must be a ProtocolError
// whose message names the violation, with nothing consumed from the bad
// frame onward.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/recovery/state_io.hpp"

namespace mris::serve {
namespace {

std::vector<Job> sample_jobs() {
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) {
    Job j;
    j.release = static_cast<Time>(i) * 1.5;
    j.processing = 1.0 + 0.25 * i;
    j.weight = 2.0 + i;
    j.tenant = i % 2;
    j.demand = {0.25, 0.5};
    jobs.push_back(j);
  }
  return jobs;
}

/// Decodes a whole stream, returning the job frames.
std::vector<JobFrame> decode_all(const std::string& bytes,
                                 std::uint32_t resources) {
  FrameDecoder decoder(resources);
  decoder.feed(bytes);
  std::vector<JobFrame> jobs;
  Frame frame;
  while (decoder.next(frame)) {
    if (frame.kind == kFrameJob) jobs.push_back(frame.job);
  }
  decoder.finish();
  return jobs;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(ProtocolTest, RoundTripsAStream) {
  const std::vector<Job> jobs = sample_jobs();
  const std::string bytes = encode_stream(jobs, 2);
  const std::vector<JobFrame> decoded = decode_all(bytes, 2);
  ASSERT_EQ(decoded.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(decoded[i].seq, i);
    EXPECT_TRUE(bits_equal(decoded[i].job.release, jobs[i].release));
    EXPECT_TRUE(bits_equal(decoded[i].job.processing, jobs[i].processing));
    EXPECT_TRUE(bits_equal(decoded[i].job.weight, jobs[i].weight));
    EXPECT_EQ(decoded[i].job.tenant, jobs[i].tenant);
    ASSERT_EQ(decoded[i].job.demand.size(), jobs[i].demand.size());
    for (std::size_t l = 0; l < jobs[i].demand.size(); ++l) {
      EXPECT_TRUE(bits_equal(decoded[i].job.demand[l], jobs[i].demand[l]));
    }
  }
}

TEST(ProtocolTest, DecodesOneByteAtATime) {
  const std::string bytes = encode_stream(sample_jobs(), 2);
  FrameDecoder decoder(2);
  Frame frame;
  std::size_t jobs = 0;
  for (char c : bytes) {
    decoder.feed(std::string_view(&c, 1));
    while (decoder.next(frame)) {
      if (frame.kind == kFrameJob) ++jobs;
    }
  }
  decoder.finish();
  EXPECT_EQ(jobs, sample_jobs().size());
  EXPECT_TRUE(decoder.saw_end());
}

/// Expects decoding `bytes` to throw a ProtocolError mentioning `needle`.
void expect_rejected(const std::string& bytes, const std::string& needle,
                     std::uint32_t resources = 2) {
  try {
    decode_all(bytes, resources);
    FAIL() << "expected ProtocolError containing '" << needle << "'";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

std::string hello_only() {
  std::string out;
  encode_hello(out, 2);
  return out;
}

Job valid_job() {
  Job j;
  j.release = 1.0;
  j.processing = 2.0;
  j.weight = 1.0;
  j.demand = {0.5, 0.5};
  return j;
}

TEST(ProtocolTest, RejectsJobBeforeHello) {
  std::string out;
  encode_job(out, 0, valid_job());
  expect_rejected(out, "Job before Hello");
}

TEST(ProtocolTest, RejectsDuplicateHello) {
  std::string out = hello_only();
  encode_hello(out, 2);
  expect_rejected(out, "duplicate Hello");
}

TEST(ProtocolTest, RejectsResourceMismatch) {
  expect_rejected(hello_only(), "configured for 3", 3);
}

TEST(ProtocolTest, RejectsVersionMismatch) {
  // Hand-build a Hello claiming version 99 — with a valid CRC, so the
  // version check (not the CRC check) is what fires.
  std::string out;
  {
    std::string body;
    body.push_back(static_cast<char>(kFrameHello));
    const std::uint32_t version = 99;
    const std::uint32_t resources = 2;
    for (int i = 0; i < 4; ++i) {
      body.push_back(static_cast<char>((version >> (8 * i)) & 0xFF));
    }
    for (int i = 0; i < 4; ++i) {
      body.push_back(static_cast<char>((resources >> (8 * i)) & 0xFF));
    }
    const std::uint32_t size = static_cast<std::uint32_t>(body.size());
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((size >> (8 * i)) & 0xFF));
    }
    out += body;
    const std::uint32_t crc = recovery::crc32(body);
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
    }
  }
  expect_rejected(out, "protocol version 99");
}

TEST(ProtocolTest, RejectsCorruptedCrc) {
  std::string out = hello_only();
  out.back() = static_cast<char>(out.back() ^ 0x5A);
  expect_rejected(out, "CRC mismatch");
}

TEST(ProtocolTest, RejectsSeqGapAndDuplicate) {
  {
    std::string out = hello_only();
    encode_job(out, 1, valid_job());  // gap: expected 0
    expect_rejected(out, "expected 0");
  }
  {
    std::string out = hello_only();
    encode_job(out, 0, valid_job());
    encode_job(out, 0, valid_job());  // duplicate
    expect_rejected(out, "duplicated or out-of-order");
  }
}

TEST(ProtocolTest, RejectsReleaseRegression) {
  std::string out = hello_only();
  Job a = valid_job();
  a.release = 5.0;
  Job b = valid_job();
  b.release = 4.0;
  encode_job(out, 0, a);
  encode_job(out, 1, b);
  expect_rejected(out, "regresses");
}

TEST(ProtocolTest, RejectsInvalidJobValues) {
  const auto with = [](auto&& mutate) {
    std::string out = hello_only();
    Job j = valid_job();
    mutate(j);
    encode_job(out, 0, j);
    return out;
  };
  expect_rejected(with([](Job& j) { j.release = -1.0; }), "release");
  expect_rejected(with([](Job& j) { j.processing = 0.5; }), "processing");
  expect_rejected(with([](Job& j) { j.weight = 0.0; }), "weight");
  expect_rejected(with([](Job& j) { j.demand[0] = 1.5; }), "demand");
  expect_rejected(with([](Job& j) { j.demand = {0.0, 0.0}; }), "positive");
  const double nan = std::bit_cast<double>(0x7FF8000000000001ull);
  expect_rejected(with([nan](Job& j) { j.release = nan; }), "release");
}

TEST(ProtocolTest, RejectsEndCountMismatchAndTrailingFrames) {
  {
    std::string out = hello_only();
    encode_job(out, 0, valid_job());
    encode_end(out, 2);
    expect_rejected(out, "End claims 2");
  }
  {
    std::string out = hello_only();
    encode_end(out, 0);
    encode_job(out, 0, valid_job());
    expect_rejected(out, "frame after End");
  }
}

TEST(ProtocolTest, RejectsTruncatedStreamAtEof) {
  std::string out = hello_only();
  encode_job(out, 0, valid_job());
  // No End frame, and also cut the last frame in half.
  out.resize(out.size() - 6);
  FrameDecoder decoder(2);
  decoder.feed(out);
  Frame frame;
  while (decoder.next(frame)) {
  }
  EXPECT_THROW(decoder.finish(), ProtocolError);
}

std::string size_prefix(std::uint32_t size) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((size >> (8 * i)) & 0xFF));
  }
  return out;
}

TEST(ProtocolTest, RejectsOversizedAndZeroSizeFrames) {
  expect_rejected(size_prefix(0) + std::string(8, '\0'), "size 0");
  expect_rejected(size_prefix(kMaxFrameBytes + 1), "exceeds");
}

TEST(ProtocolTest, BytesNeededCountsDownToTheNextFrame) {
  std::string hello;
  encode_hello(hello, 2);
  std::string job;
  encode_job(job, 0, valid_job());
  FrameDecoder decoder(2);
  Frame frame;
  EXPECT_EQ(decoder.bytes_needed(), 4u);  // empty buffer: the size word
  EXPECT_EQ(decoder.buffered(), 0u);

  decoder.feed(std::string_view(hello).substr(0, 3));  // partial prefix
  EXPECT_EQ(decoder.bytes_needed(), 1u);
  EXPECT_FALSE(decoder.next(frame));

  decoder.feed(std::string_view(hello).substr(3, 4));  // prefix + 3 body
  EXPECT_EQ(decoder.bytes_needed(), hello.size() - 7);  // mid-body
  EXPECT_FALSE(decoder.next(frame));

  decoder.feed(std::string_view(hello).substr(7));
  EXPECT_EQ(decoder.bytes_needed(), 0u);  // whole frame buffered
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.kind, kFrameHello);
  EXPECT_EQ(decoder.bytes_needed(), 4u);  // right after a decoded frame
  EXPECT_EQ(decoder.buffered(), 0u);

  decoder.feed(std::string_view(job).substr(0, 4));  // prefix only
  EXPECT_EQ(decoder.bytes_needed(), job.size() - 4);  // body + CRC
  decoder.feed(std::string_view(job).substr(4, job.size() - 5));
  EXPECT_EQ(decoder.bytes_needed(), 1u);  // one CRC byte short
  EXPECT_FALSE(decoder.next(frame));
  decoder.feed(std::string_view(job).substr(job.size() - 1));
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.kind, kFrameJob);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(ProtocolTest, BadSizePrefixThrowsBeforeAnyBodyIsAwaited) {
  // A reader that blocks for bytes_needed() must never wait on a body the
  // prefix already rules out: next() rejects it as soon as the size word
  // is complete, and bytes_needed() never exceeds one maximal frame.
  for (const std::uint32_t bad : {0u, kMaxFrameBytes + 1, 0xFFFFFFFFu}) {
    FrameDecoder decoder(2);
    decoder.feed(hello_only());
    Frame frame;
    ASSERT_TRUE(decoder.next(frame));
    decoder.feed(size_prefix(bad));
    EXPECT_EQ(decoder.bytes_needed(), 0u) << bad;
    EXPECT_THROW(decoder.next(frame), ProtocolError) << bad;
  }
  FrameDecoder decoder(2);
  decoder.feed(size_prefix(kMaxFrameBytes));
  EXPECT_EQ(decoder.bytes_needed(), std::size_t{kMaxFrameBytes} + 4u);
  EXPECT_LE(decoder.bytes_needed(), std::size_t{kMaxFrameBytes} + 8u);
}

}  // namespace
}  // namespace mris::serve
