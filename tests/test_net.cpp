// The network ingestion front end: wire codec round-trips for all four
// domains, malformed-frame handling (truncation at every header boundary,
// CRC corruption, oversized payloads, counts the payload cannot hold —
// bounded with a counting allocator), split-read reassembly, the
// multi-tenant TCP/UDS server (auth, stream isolation, concurrent quota
// enforcement), and clean shutdown with in-flight frames (the TSan job
// runs this binary).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "wire_corpus.hpp"

#include "av/factory.hpp"
#include "config/monitor_loader.hpp"
#include "config/scenario.hpp"
#include "config/spec.hpp"
#include "ecg/factory.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serve/domains.hpp"
#include "serve/monitor.hpp"
#include "tvnews/factory.hpp"
#include "video/factory.hpp"

// A counting global allocator: while `g_track_allocations` is set it keeps
// the largest single request, so a test can bound what a decode allocates.
// The plain and nothrow forms are replaced, all on malloc/free, so
// sanitizer builds see matching allocation and deallocation functions.
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<std::size_t> g_largest_allocation{0};

void* CountedAlloc(std::size_t size) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    std::size_t largest = g_largest_allocation.load();
    while (size > largest &&
           !g_largest_allocation.compare_exchange_weak(largest, size)) {
    }
  }
  return std::malloc(size == 0 ? 1 : size);
}

// Not inlined: g++ would otherwise pair the inlined free() with a caller's
// operator new and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace omg::net {
namespace {

/// The largest single allocation `body` makes.
template <typename Body>
std::size_t LargestAllocationDuring(Body&& body) {
  g_largest_allocation = 0;
  g_track_allocations = true;
  body();
  g_track_allocations = false;
  return g_largest_allocation.load();
}

// ------------------------------------------------------------------ wire ---

TEST(Wire, Crc32KnownVector) {
  const std::string text = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const std::uint8_t*>(text.data()),
                   text.size()}),
            0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Wire, HeaderRoundTripPreservesEveryField) {
  FrameHeader header;
  header.type = FrameType::kData;
  header.seq = 77;
  header.session = 0x1122334455667788ull;
  header.stream = 42;
  header.set_domain_tag("video");
  header.count = 25;
  header.set_hint(2.5);

  const std::vector<std::uint8_t> bytes = EncodeFrame(header, {});
  ASSERT_EQ(bytes.size(), FrameHeader::kBytes);
  const serve::Result<FrameHeader> decoded = DecodeHeader(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, FrameType::kData);
  EXPECT_EQ(decoded.value().seq, 77u);
  EXPECT_EQ(decoded.value().session, 0x1122334455667788ull);
  EXPECT_EQ(decoded.value().stream, 42u);
  EXPECT_EQ(decoded.value().domain_tag(), "video");
  EXPECT_EQ(decoded.value().count, 25u);
  EXPECT_EQ(decoded.value().hint(), 2.5);
}

TEST(Wire, DecodeHeaderTruncatedAtEveryBoundary) {
  FrameHeader header;
  header.set_domain_tag("ecg");
  const std::vector<std::uint8_t> bytes = EncodeFrame(header, {});
  for (std::size_t length = 0; length < FrameHeader::kBytes; ++length) {
    const serve::Result<FrameHeader> decoded =
        DecodeHeader({bytes.data(), length});
    ASSERT_FALSE(decoded.ok()) << "length " << length;
    EXPECT_EQ(decoded.error().code, serve::ErrorCode::kTruncatedFrame)
        << "length " << length;
  }
  EXPECT_TRUE(DecodeHeader(bytes).ok());
}

TEST(Wire, DecodeHeaderRejectsMagicVersionAndType) {
  const std::vector<std::uint8_t> good = EncodeFrame(FrameHeader{}, {});

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(DecodeHeader(bad_magic).error().code,
            serve::ErrorCode::kBadMagic);

  std::vector<std::uint8_t> bad_version = good;
  bad_version[4] = 0x7F;  // version low byte
  EXPECT_EQ(DecodeHeader(bad_version).error().code,
            serve::ErrorCode::kBadVersion);

  std::vector<std::uint8_t> bad_type = good;
  bad_type[6] = 0xEE;  // type low byte
  EXPECT_EQ(DecodeHeader(bad_type).error().code,
            serve::ErrorCode::kUnknownFrameType);
}

TEST(Wire, DecodeFrameCatchesCrcAndOversize) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8};
  FrameHeader header;
  header.count = 1;
  std::vector<std::uint8_t> bytes = EncodeFrame(header, payload);

  EXPECT_TRUE(DecodeFrame(bytes).ok());
  // Truncated payload: the declared length overruns the buffer.
  EXPECT_EQ(DecodeFrame({bytes.data(), bytes.size() - 1}).error().code,
            serve::ErrorCode::kTruncatedFrame);

  std::vector<std::uint8_t> corrupted = bytes;
  corrupted.back() ^= 0xFF;
  EXPECT_EQ(DecodeFrame(corrupted).error().code,
            serve::ErrorCode::kCrcMismatch);

  EXPECT_EQ(DecodeFrame(bytes, 4).error().code,
            serve::ErrorCode::kOversizedFrame);
}

// ----------------------------------------------------------------- codecs ---

TEST(Codec, RoundTripsAllFourDomains) {
  const serve::DomainRegistry registry = serve::MakeDefaultDomainRegistry();
  for (const std::string domain : {"video", "av", "ecg", "tvnews"}) {
    const PayloadCodec* codec = registry.CodecFor(domain);
    ASSERT_NE(codec, nullptr) << domain;

    std::vector<serve::AnyExample> batch;
    for (std::size_t i = 0; i < 7; ++i) {
      serve::Result<serve::AnyExample> example =
          MakeSyntheticExample(domain, i);
      ASSERT_TRUE(example.ok()) << domain;
      batch.push_back(std::move(example.value()));
    }
    const std::vector<std::uint8_t> payload = EncodeBatch(*codec, batch);
    const serve::Result<std::vector<serve::AnyExample>> decoded =
        DecodeBatch(*codec, payload, static_cast<std::uint32_t>(batch.size()));
    ASSERT_TRUE(decoded.ok()) << domain;
    ASSERT_EQ(decoded.value().size(), batch.size()) << domain;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(decoded.value()[i].domain(), domain);
      EXPECT_EQ(decoded.value()[i].DebugString(), batch[i].DebugString())
          << domain << " example " << i;
    }
  }
}

TEST(Codec, RoundTripPreservesVideoGeometry) {
  const serve::DomainRegistry registry = serve::MakeDefaultDomainRegistry();
  const PayloadCodec* codec = registry.CodecFor("video");
  ASSERT_NE(codec, nullptr);
  video::VideoExample example;
  example.frame_index = 9;
  example.timestamp = 1.25;
  example.detections.push_back(
      {geometry::Box2D{0.1, 0.2, 0.3, 0.4}, "car", 0.875, 3});
  std::vector<serve::AnyExample> batch;
  batch.push_back(serve::AnyExample::Make(std::move(example)));

  const std::vector<std::uint8_t> payload = EncodeBatch(*codec, batch);
  serve::Result<std::vector<serve::AnyExample>> decoded =
      DecodeBatch(*codec, payload, 1);
  ASSERT_TRUE(decoded.ok());
  const video::VideoExample& got = decoded.value()[0].Get<video::VideoExample>();
  EXPECT_EQ(got.frame_index, 9u);
  EXPECT_EQ(got.timestamp, 1.25);
  ASSERT_EQ(got.detections.size(), 1u);
  EXPECT_EQ(got.detections[0].label, "car");
  EXPECT_EQ(got.detections[0].confidence, 0.875);
  EXPECT_EQ(got.detections[0].truth_id, 3);
  EXPECT_EQ(got.detections[0].box.x_min, 0.1);
  EXPECT_EQ(got.detections[0].box.y_max, 0.4);
}

TEST(Codec, RejectsCountMismatchAndTrailingGarbage) {
  const serve::DomainRegistry registry = serve::MakeDefaultDomainRegistry();
  const PayloadCodec* codec = registry.CodecFor("ecg");
  ASSERT_NE(codec, nullptr);
  std::vector<serve::AnyExample> batch;
  batch.push_back(std::move(MakeSyntheticExample("ecg", 0).value()));
  std::vector<std::uint8_t> payload = EncodeBatch(*codec, batch);

  // Declared count exceeds the encoded examples: decode underruns.
  EXPECT_EQ(DecodeBatch(*codec, payload, 2).error().code,
            serve::ErrorCode::kMalformedPayload);
  // Bytes beyond the declared count: trailing garbage.
  payload.push_back(0);
  EXPECT_EQ(DecodeBatch(*codec, payload, 1).error().code,
            serve::ErrorCode::kMalformedPayload);
}

TEST(Codec, RejectsCountsThePayloadCannotHoldBeforeAllocating) {
  const serve::DomainRegistry registry = serve::MakeDefaultDomainRegistry();
  const PayloadCodec* video = registry.CodecFor("video");
  ASSERT_NE(video, nullptr);
  // Allocations a rejected decode may make: the error message, a holder
  // or two — nothing sized by the hostile count.
  constexpr std::size_t kSmall = 4096;

  // One video example declaring 65,536 detections in a 20-byte payload
  // (each detection needs at least 52 bytes).
  WireWriter hostile;
  hostile.U64(0);
  hostile.F64(0.0);
  hostile.U32(1u << 16);
  ASSERT_EQ(hostile.size(), 20u);
  const std::size_t largest = LargestAllocationDuring([&] {
    EXPECT_EQ(DecodeBatch(*video, hostile.bytes(), 1).error().code,
              serve::ErrorCode::kMalformedPayload);
  });
  EXPECT_LT(largest, kSmall);

  // An 8-byte payload whose header claims 2^20 examples (the frame limit).
  const std::vector<std::uint8_t> eight(8, 0);
  for (const std::string domain : {"video", "av", "ecg", "tvnews"}) {
    const PayloadCodec* codec = registry.CodecFor(domain);
    ASSERT_NE(codec, nullptr);
    const std::size_t reserved = LargestAllocationDuring([&] {
      EXPECT_EQ(DecodeBatch(*codec, eight, kMaxExamplesPerFrame).error().code,
                serve::ErrorCode::kMalformedPayload);
    });
    EXPECT_LT(reserved, kSmall) << domain;
  }

  // Frames at the bound still decode: detections with empty labels are
  // exactly 52 bytes each, so this payload holds its count exactly.
  video::VideoExample example;
  example.detections.assign(3, {geometry::Box2D{}, "", 0.5, 0});
  std::vector<serve::AnyExample> batch;
  batch.push_back(serve::AnyExample::Make(std::move(example)));
  const std::vector<std::uint8_t> exact = EncodeBatch(*video, batch);
  ASSERT_EQ(exact.size(), 20u + 3 * 52u);
  const serve::Result<std::vector<serve::AnyExample>> decoded =
      DecodeBatch(*video, exact, 1);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value()[0].Get<video::VideoExample>().detections.size(),
            3u);
}

// -------------------------------------------------------------- assembler ---

std::vector<std::uint8_t> MakeDataFrame(std::uint64_t seq,
                                        std::uint8_t fill) {
  FrameHeader header;
  header.type = FrameType::kData;
  header.seq = seq;
  header.count = 4;
  header.set_domain_tag("video");
  const std::vector<std::uint8_t> payload(24, fill);
  return EncodeFrame(header, payload);
}

TEST(Assembler, ReassemblesFramesFedByteAtATime) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const std::vector<std::uint8_t> frame =
        MakeDataFrame(seq, static_cast<std::uint8_t>(seq));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  FrameAssembler assembler(1 << 20);
  std::vector<std::uint64_t> seen;
  for (const std::uint8_t byte : stream) {
    assembler.Feed({&byte, 1});
    for (;;) {
      FrameAssembler::Step step = assembler.Next();
      if (step.NeedMore()) break;
      ASSERT_TRUE(step.frame.has_value());
      seen.push_back(step.frame->header.seq);
      EXPECT_EQ(step.frame->payload.size(), 24u);
    }
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_FALSE(assembler.MidFrame());
}

TEST(Assembler, CrcMismatchSkipsOneFrameAndRecovers) {
  std::vector<std::uint8_t> corrupt = MakeDataFrame(1, 0xAA);
  corrupt.back() ^= 0xFF;  // payload corruption, framing intact
  const std::vector<std::uint8_t> good = MakeDataFrame(2, 0xBB);

  FrameAssembler assembler(1 << 20);
  assembler.Feed(corrupt);
  assembler.Feed(good);

  FrameAssembler::Step first = assembler.Next();
  ASSERT_TRUE(first.failure.has_value());
  EXPECT_EQ(first.failure->error.code, serve::ErrorCode::kCrcMismatch);
  EXPECT_EQ(first.failure->lost_examples, 4u);
  EXPECT_FALSE(first.failure->fatal);

  FrameAssembler::Step second = assembler.Next();
  ASSERT_TRUE(second.frame.has_value());
  EXPECT_EQ(second.frame->header.seq, 2u);
}

TEST(Assembler, FatalFailurePoisonsTheStream) {
  std::vector<std::uint8_t> bad = MakeDataFrame(1, 0x11);
  bad[0] = 'X';  // bad magic: framing untrustworthy

  FrameAssembler assembler(1 << 20);
  assembler.Feed(bad);
  FrameAssembler::Step step = assembler.Next();
  ASSERT_TRUE(step.failure.has_value());
  EXPECT_EQ(step.failure->error.code, serve::ErrorCode::kBadMagic);
  EXPECT_TRUE(step.failure->fatal);

  // A poisoned assembler repeats the failure even over fresh good bytes.
  assembler.Feed(MakeDataFrame(2, 0x22));
  FrameAssembler::Step after = assembler.Next();
  ASSERT_TRUE(after.failure.has_value());
  EXPECT_TRUE(after.failure->fatal);
}

TEST(Assembler, OversizedDeclaredLengthIsFatal) {
  FrameHeader header;
  header.type = FrameType::kData;
  const std::vector<std::uint8_t> payload(256, 0x55);
  const std::vector<std::uint8_t> frame = EncodeFrame(header, payload);

  FrameAssembler assembler(/*max_frame_bytes=*/64);
  assembler.Feed(frame);
  FrameAssembler::Step step = assembler.Next();
  ASSERT_TRUE(step.failure.has_value());
  EXPECT_EQ(step.failure->error.code, serve::ErrorCode::kOversizedFrame);
  EXPECT_TRUE(step.failure->fatal);
}

// ----------------------------------------------------------------- corpus ---

// The shared corrupt-frame table (wire_corpus.hpp) against the one-shot
// decoder: every corruption class gets its documented code, and the two
// boundary-valid cases (zero-count DATA, exactly-max payload) decode.
TEST(Corpus, DecodeFrameVerdictsMatchTheTable) {
  constexpr std::size_t kMaxFrameBytes = 4096;
  const std::vector<std::uint8_t> good = MakeDataFrame(7, 0xC3);
  for (const testing::CorruptFrameCase& c :
       testing::CorruptFrameCorpus(good, 4, kMaxFrameBytes)) {
    const serve::Result<Frame> decoded = DecodeFrame(c.bytes, kMaxFrameBytes);
    if (c.valid) {
      EXPECT_TRUE(decoded.ok()) << c.name;
      continue;
    }
    ASSERT_FALSE(decoded.ok()) << c.name;
    EXPECT_EQ(decoded.code(), c.expected) << c.name;
  }
}

// The same table against the streaming assembler: truncations are NeedMore
// (not errors), corruptions carry the table's fatality and — the decode
// accounting contract — lost_examples is the header count only when the
// header passed its own CRC, never when the count field itself may be
// corrupt.
TEST(Corpus, AssemblerVerdictsAndAccountingMatchTheTable) {
  constexpr std::size_t kMaxFrameBytes = 4096;
  const std::vector<std::uint8_t> good = MakeDataFrame(7, 0xC3);
  for (const testing::CorruptFrameCase& c :
       testing::CorruptFrameCorpus(good, 4, kMaxFrameBytes)) {
    FrameAssembler assembler(kMaxFrameBytes);
    assembler.Feed(c.bytes);
    const FrameAssembler::Step step = assembler.Next();
    if (c.truncated) {
      EXPECT_TRUE(step.NeedMore()) << c.name;
      continue;
    }
    if (c.valid) {
      EXPECT_TRUE(step.frame.has_value()) << c.name;
      continue;
    }
    ASSERT_TRUE(step.failure.has_value()) << c.name;
    EXPECT_EQ(step.failure->error.code, c.expected) << c.name;
    EXPECT_EQ(step.failure->fatal, c.fatal) << c.name;
    EXPECT_EQ(step.failure->lost_examples, c.lost_examples) << c.name;
  }
}

// Regression (header CRC, wire v2): a frame whose count field is corrupted
// must report zero lost examples — the bogus count is untrustworthy in
// either direction, so it must not inflate or deflate decode_errors.
TEST(Assembler, CorruptedCountFieldReportsZeroLostExamples) {
  std::vector<std::uint8_t> frame = MakeDataFrame(1, 0x5C);
  frame[40] ^= 0xFF;  // count field, little-endian low byte
  FrameAssembler assembler(1 << 20);
  assembler.Feed(frame);
  const FrameAssembler::Step step = assembler.Next();
  ASSERT_TRUE(step.failure.has_value());
  EXPECT_EQ(step.failure->error.code, serve::ErrorCode::kCrcMismatch);
  EXPECT_TRUE(step.failure->fatal);
  EXPECT_EQ(step.failure->lost_examples, 0u);
}

// ----------------------------------------------------------------- server ---

TEST(Server, ValidTenantNames) {
  EXPECT_TRUE(IngestServer::ValidTenantName("alpha"));
  EXPECT_TRUE(IngestServer::ValidTenantName("Tenant_01-x"));
  EXPECT_FALSE(IngestServer::ValidTenantName(""));
  EXPECT_FALSE(IngestServer::ValidTenantName("has space"));
  EXPECT_FALSE(IngestServer::ValidTenantName("slash/y"));
  EXPECT_FALSE(IngestServer::ValidTenantName("quote\"z"));
  EXPECT_FALSE(IngestServer::ValidTenantName(std::string(65, 'a')));
}

/// A two-domain scenario monitor for server tests.
config::ScenarioMonitor MakeHosted(const serve::DomainRegistry& domains) {
  const config::ScenarioSpec scenario =
      config::ConfigLoader::Load(config::SpecDocument::Parse(R"(
[scenario]
name = "net-test"
[runtime]
shards = 2
window = 32
settle_lag = 4
queue_capacity = 1024
[suite video]
assertions = [video.multibox]
[suite ecg]
assertions = [ecg.oscillation]
[stream cam]
domain = video
[stream ward]
domain = ecg
)"));
  return config::BuildScenarioMonitor(scenario, domains);
}

std::string TestSocketPath(const char* tag) {
  return "/tmp/omg_net_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

std::vector<serve::AnyExample> SyntheticBatch(const std::string& domain,
                                              std::size_t count) {
  std::vector<serve::AnyExample> batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(std::move(MakeSyntheticExample(domain, i).value()));
  }
  return batch;
}

TEST(Server, HelloBindDataFlushStatsOverUds) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("uds");
  IngestServer server(options, *hosted.monitor, domains);
  for (const config::BoundStream& stream : hosted.streams) {
    server.ExposeStream(stream.handle);
  }
  const serve::Result<ServerEndpoints> endpoints = server.Start();
  ASSERT_TRUE(endpoints.ok());

  serve::Result<ClientConnection> conn =
      ClientConnection::ConnectUds(endpoints.value().uds_path);
  ASSERT_TRUE(conn.ok());
  ClientConnection client = std::move(conn.value());

  // Control before HELLO is a typed error, not a closed connection.
  EXPECT_EQ(client.BindStream("video", "cam").error().code,
            serve::ErrorCode::kNotAuthenticated);

  const serve::Result<std::uint64_t> session = client.Hello("any", "");
  ASSERT_TRUE(session.ok());
  EXPECT_GT(session.value(), 0u);

  EXPECT_EQ(client.BindStream("video", "nope").error().code,
            serve::ErrorCode::kUnknownStream);
  const serve::Result<std::uint64_t> binding =
      client.BindStream("video", "cam");
  ASSERT_TRUE(binding.ok());

  const PayloadCodec* codec = domains.CodecFor("video");
  ASSERT_NE(codec, nullptr);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client
                    .SendBatch(*codec, binding.value(),
                               SyntheticBatch("video", 8))
                    .ok());
  }
  ASSERT_TRUE(client.Flush().ok());

  const serve::Result<std::vector<std::uint64_t>> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().size(), 8u);
  const std::uint64_t offered = stats.value()[0];
  const std::uint64_t admitted = stats.value()[1];
  const std::uint64_t scored = stats.value()[4];
  EXPECT_EQ(offered, 32u);
  EXPECT_EQ(admitted, 32u);
  EXPECT_EQ(scored, 32u);

  EXPECT_TRUE(client.Goodbye().ok());
  server.Stop();
  EXPECT_EQ(hosted.monitor->Metrics().examples_seen, 32u);
}

TEST(Server, TcpTransportServes) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.tcp = true;  // ephemeral port
  IngestServer server(options, *hosted.monitor, domains);
  for (const config::BoundStream& stream : hosted.streams) {
    server.ExposeStream(stream.handle);
  }
  const serve::Result<ServerEndpoints> endpoints = server.Start();
  ASSERT_TRUE(endpoints.ok());
  ASSERT_GT(endpoints.value().tcp_port, 0);

  serve::Result<ClientConnection> conn =
      ClientConnection::ConnectTcp("127.0.0.1", endpoints.value().tcp_port);
  ASSERT_TRUE(conn.ok());
  ClientConnection client = std::move(conn.value());
  ASSERT_TRUE(client.Hello("tenant", "").ok());
  const serve::Result<std::uint64_t> binding =
      client.BindStream("ecg", "ward");
  ASSERT_TRUE(binding.ok());
  const PayloadCodec* codec = domains.CodecFor("ecg");
  ASSERT_TRUE(client
                  .SendBatch(*codec, binding.value(),
                             SyntheticBatch("ecg", 16))
                  .ok());
  const serve::Result<std::vector<std::uint64_t>> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value()[0], 16u);  // offered
  EXPECT_EQ(stats.value()[4], 16u);  // scored
  server.Stop();
}

TEST(Server, AuthAndTenantIsolation) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("auth");
  options.tenants.push_back({.name = "alpha", .token = "a-secret"});
  options.tenants.push_back({.name = "beta", .token = "b-secret"});
  IngestServer server(options, *hosted.monitor, domains);
  // cam belongs to alpha; ward is open to any authenticated tenant.
  server.ExposeStream(hosted.streams[0].handle, "alpha");
  server.ExposeStream(hosted.streams[1].handle);
  ASSERT_TRUE(server.Start().ok());

  ClientConnection beta = std::move(
      ClientConnection::ConnectUds(options.uds_path).value());
  // A closed roster rejects unknown tenants and wrong tokens.
  EXPECT_EQ(beta.Hello("gamma", "x").error().code,
            serve::ErrorCode::kUnknownTenant);
  EXPECT_EQ(beta.Hello("beta", "wrong").error().code,
            serve::ErrorCode::kAuthFailed);
  ASSERT_TRUE(beta.Hello("beta", "b-secret").ok());

  // Another tenant's stream reads as unknown — the roster does not leak.
  EXPECT_EQ(beta.BindStream("video", "cam").error().code,
            serve::ErrorCode::kUnknownStream);
  EXPECT_TRUE(beta.BindStream("ecg", "ward").ok());

  ClientConnection alpha = std::move(
      ClientConnection::ConnectUds(options.uds_path).value());
  ASSERT_TRUE(alpha.Hello("alpha", "a-secret").ok());
  EXPECT_TRUE(alpha.BindStream("video", "cam").ok());
  server.Stop();
}

TEST(Server, ConcurrentTenantQuotaEnforcement) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("quota");
  // `limited` can burst 64 examples and refills a negligible trickle;
  // `free` is unlimited. Both hammer concurrently.
  options.tenants.push_back(
      {.name = "limited", .token = "", .quota_eps = 1.0, .burst = 64.0});
  options.tenants.push_back({.name = "free"});
  IngestServer server(options, *hosted.monitor, domains);
  server.ExposeStream(hosted.streams[0].handle);  // cam (video)
  server.ExposeStream(hosted.streams[1].handle);  // ward (ecg)
  ASSERT_TRUE(server.Start().ok());

  const auto drive = [&options, &domains](const std::string& tenant,
                                          const std::string& domain,
                                          const std::string& stream) {
    ClientConnection client = std::move(
        ClientConnection::ConnectUds(options.uds_path).value());
    ASSERT_TRUE(client.Hello(tenant, "").ok());
    const std::uint64_t binding =
        client.BindStream(domain, stream).value();
    const PayloadCodec* codec = domains.CodecFor(domain);
    const std::vector<serve::AnyExample> batch = SyntheticBatch(domain, 16);
    const std::vector<std::uint8_t> payload = EncodeBatch(*codec, batch);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(
          client.SendEncoded(binding, domain, 16, payload).ok());
    }
    ASSERT_TRUE(client.Flush().ok());
    ASSERT_TRUE(client.Goodbye().ok());
  };
  std::thread limited(drive, "limited", "video", "cam");
  std::thread free_rider(drive, "free", "ecg", "ward");
  limited.join();
  free_rider.join();

  // Both connections closed after FLUSH+GOODBYE, so stats are settled.
  const IngestServerStats stats = server.Stats();
  server.Stop();
  const TenantStats& lim = stats.tenants.at("limited");
  const TenantStats& fr = stats.tenants.at("free");
  EXPECT_EQ(lim.offered, 512u);
  EXPECT_EQ(fr.offered, 512u);
  // The limited tenant admitted its burst (64 = 4 frames) plus at most a
  // trickle of refill; everything else was rejected before the queues.
  EXPECT_GE(lim.admitted, 64u);
  EXPECT_LE(lim.admitted, 128u);
  EXPECT_GE(lim.quota_rejected, 384u);
  EXPECT_EQ(fr.quota_rejected, 0u);
  EXPECT_EQ(fr.admitted, 512u);
  for (const TenantStats* tenant : {&lim, &fr}) {
    EXPECT_EQ(tenant->offered, tenant->admitted + tenant->shed +
                                   tenant->quota_rejected +
                                   tenant->decode_errors);
  }
  // The monitor only ever saw admitted examples.
  hosted.monitor->Flush();
  EXPECT_EQ(hosted.monitor->Metrics().examples_seen,
            lim.admitted + fr.admitted);
}

TEST(Server, ShedFloorHintBypassesExhaustedQuota) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("floor");
  options.tenants.push_back({.name = "t",
                             .token = "",
                             .quota_eps = 1.0,
                             .burst = 16.0,
                             .shed_floor = 1.0,
                             .has_shed_floor = true});
  IngestServer server(options, *hosted.monitor, domains);
  server.ExposeStream(hosted.streams[0].handle);
  ASSERT_TRUE(server.Start().ok());

  ClientConnection client = std::move(
      ClientConnection::ConnectUds(options.uds_path).value());
  ASSERT_TRUE(client.Hello("t", "").ok());
  const std::uint64_t binding = client.BindStream("video", "cam").value();
  const PayloadCodec* codec = domains.CodecFor("video");
  const std::vector<std::uint8_t> payload =
      EncodeBatch(*codec, SyntheticBatch("video", 16));

  // Burst (16) admits the first frame; the second, unhinted, is rejected;
  // the third rides through on a hint above the tenant's shed floor.
  ASSERT_TRUE(client.SendEncoded(binding, "video", 16, payload, 0.0).ok());
  ASSERT_TRUE(client.SendEncoded(binding, "video", 16, payload, 0.0).ok());
  ASSERT_TRUE(client.SendEncoded(binding, "video", 16, payload, 2.0).ok());
  ASSERT_TRUE(client.Flush().ok());

  const serve::Result<std::vector<std::uint64_t>> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value()[0], 48u);  // offered
  EXPECT_EQ(stats.value()[1], 32u);  // admitted (burst + bypass)
  EXPECT_EQ(stats.value()[2], 16u);  // quota_rejected
  server.Stop();
}

TEST(Server, MalformedDataFramesAreCountedNotFatal) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("malformed");
  IngestServer server(options, *hosted.monitor, domains);
  server.ExposeStream(hosted.streams[0].handle);
  ASSERT_TRUE(server.Start().ok());

  ClientConnection client = std::move(
      ClientConnection::ConnectUds(options.uds_path).value());
  ASSERT_TRUE(client.Hello("t", "").ok());
  const std::uint64_t binding = client.BindStream("video", "cam").value();
  const PayloadCodec* codec = domains.CodecFor("video");
  const std::vector<std::uint8_t> good =
      EncodeBatch(*codec, SyntheticBatch("video", 8));

  // Garbage payload under an intact frame: malformed, connection lives.
  const std::vector<std::uint8_t> garbage(32, 0xFF);
  ASSERT_TRUE(client.SendEncoded(binding, "video", 8, garbage).ok());
  // Wrong domain tag for the binding.
  ASSERT_TRUE(client.SendEncoded(binding, "ecg", 8, good).ok());
  // A good frame after both still serves.
  ASSERT_TRUE(client.SendEncoded(binding, "video", 8, good).ok());
  ASSERT_TRUE(client.Flush().ok());

  const serve::Result<std::vector<std::uint64_t>> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value()[0], 24u);  // offered
  EXPECT_EQ(stats.value()[1], 8u);   // admitted
  EXPECT_EQ(stats.value()[3], 16u);  // decode errors
  EXPECT_EQ(stats.value()[4], 8u);   // scored
  server.Stop();
}

// Raw-socket plumbing for tests that must put hand-crafted (corrupt) bytes
// on the wire — ClientConnection refuses to build them.
int RawConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool RawWriteAll(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads frames off `fd` via `assembler` until one whole reply arrives.
std::optional<Frame> RawReadFrame(int fd, FrameAssembler& assembler) {
  for (;;) {
    FrameAssembler::Step step = assembler.Next();
    if (step.frame.has_value()) return std::move(step.frame);
    if (step.failure.has_value()) return std::nullopt;
    std::uint8_t buffer[512];
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) return std::nullopt;
    assembler.Feed({buffer, static_cast<std::size_t>(n)});
  }
}

/// Control round-trip over a raw fd; returns the ACK's first value.
std::optional<std::uint64_t> RawRoundtrip(
    int fd, FrameAssembler& assembler, FrameType type,
    std::span<const std::uint8_t> payload, std::uint64_t session = 0) {
  FrameHeader header;
  header.type = type;
  header.session = session;
  if (!RawWriteAll(fd, EncodeFrame(header, payload))) return std::nullopt;
  const std::optional<Frame> reply = RawReadFrame(fd, assembler);
  if (!reply.has_value() || reply->header.type != FrameType::kAck) {
    return std::nullopt;
  }
  WireReader reader(reply->payload);
  std::uint32_t count = 0;
  std::uint64_t value = 0;
  if (!reader.U32(count) || count == 0 || !reader.U64(value)) return 0;
  return value;
}

// Regression for the tenant accounting identity under wire corruption: a
// payload-corrupt frame charges its (CRC-verified) count to offered and
// decode_errors; a frame whose count FIELD is corrupted fails the header
// CRC and charges nothing — the bogus count must not leak into either side
// of offered == admitted + shed + quota_rejected + decode_errors.
TEST(Server, CorruptCountHeaderCannotSkewTenantAccounting) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("corrupt-count");
  IngestServer server(options, *hosted.monitor, domains);
  server.ExposeStream(hosted.streams[0].handle);
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(options.uds_path);
  ASSERT_GE(fd, 0);
  FrameAssembler replies(1 << 20);
  WireWriter hello;
  hello.String("t");
  hello.String("");
  const std::optional<std::uint64_t> session =
      RawRoundtrip(fd, replies, FrameType::kHello, hello.bytes());
  ASSERT_TRUE(session.has_value());
  WireWriter bind;
  bind.String("video");
  bind.String("cam");
  const std::optional<std::uint64_t> binding =
      RawRoundtrip(fd, replies, FrameType::kBindStream, bind.bytes(),
                   *session);
  ASSERT_TRUE(binding.has_value());

  const PayloadCodec* codec = domains.CodecFor("video");
  const std::vector<serve::AnyExample> batch = SyntheticBatch("video", 8);
  const std::vector<std::uint8_t> payload = EncodeBatch(*codec, batch);
  FrameHeader data;
  data.type = FrameType::kData;
  data.session = *session;
  data.stream = *binding;
  data.set_domain_tag("video");
  data.count = 8;
  const std::vector<std::uint8_t> good = EncodeFrame(data, payload);

  // 1. Payload corruption: framing intact, count trusted — 8 offered, 8
  //    decode errors.
  std::vector<std::uint8_t> payload_corrupt = good;
  payload_corrupt[FrameHeader::kBytes] ^= 0xFF;  // the first payload byte
  ASSERT_TRUE(RawWriteAll(fd, payload_corrupt));
  // 2. Count-field corruption: header CRC fails, nothing countable, fatal.
  std::vector<std::uint8_t> count_corrupt = good;
  count_corrupt[40] ^= 0xFF;
  ASSERT_TRUE(RawWriteAll(fd, count_corrupt));

  // The server drops the connection at the fatal frame; EOF on our side
  // proves both frames were processed (they are handled in order).
  std::uint8_t drain[64];
  while (::read(fd, drain, sizeof(drain)) > 0) {
  }
  ::close(fd);

  const TenantStats totals = server.Stats().totals;
  EXPECT_EQ(totals.offered, 8u);
  EXPECT_EQ(totals.decode_errors, 8u);
  EXPECT_EQ(totals.admitted, 0u);
  EXPECT_EQ(totals.offered, totals.admitted + totals.shed +
                                totals.quota_rejected + totals.decode_errors);
  server.Stop();
}

TEST(Server, CleanShutdownWithInFlightFrames) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("shutdown");
  IngestServer server(options, *hosted.monitor, domains);
  server.ExposeStream(hosted.streams[0].handle);
  ASSERT_TRUE(server.Start().ok());

  ClientConnection client = std::move(
      ClientConnection::ConnectUds(options.uds_path).value());
  ASSERT_TRUE(client.Hello("t", "").ok());
  const std::uint64_t binding = client.BindStream("video", "cam").value();
  const PayloadCodec* codec = domains.CodecFor("video");
  const std::vector<std::uint8_t> payload =
      EncodeBatch(*codec, SyntheticBatch("video", 16));
  for (int i = 0; i < 64; ++i) {
    if (!client.SendEncoded(binding, "video", 16, payload).ok()) break;
  }
  // Stop with frames still in socket buffers and shard queues; everything
  // processed must still reconcile at the wire.
  server.Stop();
  client.Close();

  const IngestServerStats stats = server.Stats();
  const TenantStats& totals = stats.totals;
  EXPECT_EQ(totals.offered, totals.admitted + totals.shed +
                                totals.quota_rejected + totals.decode_errors);
  hosted.monitor->Flush();
  const runtime::MetricsSnapshot snapshot = hosted.monitor->Metrics();
  EXPECT_EQ(totals.admitted,
            snapshot.examples_seen + snapshot.TotalShedExamples() +
                snapshot.TotalDroppedExamples() +
                snapshot.TotalErroredExamples());
}

TEST(Server, PerTenantNamedMetricsReachTheRegistry) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("named");
  IngestServer server(options, *hosted.monitor, domains);
  server.ExposeStream(hosted.streams[0].handle);
  ASSERT_TRUE(server.Start().ok());

  ClientConnection client = std::move(
      ClientConnection::ConnectUds(options.uds_path).value());
  ASSERT_TRUE(client.Hello("acme", "").ok());
  const std::uint64_t binding = client.BindStream("video", "cam").value();
  const PayloadCodec* codec = domains.CodecFor("video");
  ASSERT_TRUE(client
                  .SendBatch(*codec, binding, SyntheticBatch("video", 8))
                  .ok());
  ASSERT_TRUE(client.Flush().ok());
  ASSERT_TRUE(client.Stats().ok());
  server.Stop();

  const runtime::MetricsSnapshot snapshot = hosted.monitor->Metrics();
  ASSERT_TRUE(snapshot.named.contains("tenant/acme/offered"));
  EXPECT_EQ(snapshot.named.at("tenant/acme/offered"), 8u);
  EXPECT_EQ(snapshot.named.at("tenant/acme/admitted"), 8u);
}

}  // namespace
}  // namespace omg::net
