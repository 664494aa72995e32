// Per-domain payload codecs: typed examples <-> DATA-frame payload bytes.
//
// A PayloadCodec is the wire-format sibling of a DomainTraits
// specialization: where the traits teach serve::AnyExample to *hold* a
// domain's example type, the codec teaches the net layer to *transport* it.
// Codecs live in the serve::DomainRegistry next to the suite builders
// (DomainRegistry::SetCodec), so one registry answers both "how do I score
// this domain" and "how do I decode its frames".
//
// Round-trip guarantee: for every shipped domain, Decode(Encode(batch))
// reproduces the batch field-for-field under the same wire version
// (tests/test_net.cpp pins this). Decoding never aborts — malformed bytes
// are a typed kMalformedPayload, a foreign domain tag kUnknownDomain.
//
// Decoded examples are constructed straight into AnyExample holders
// (Emplace), so a received batch goes WireReader -> AnyExample vector ->
// Monitor::ObserveBatch with no intermediate typed copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "serve/any_example.hpp"
#include "serve/result.hpp"

namespace omg::serve {
class DomainRegistry;
}  // namespace omg::serve

namespace omg::net {

/// Most examples one DATA frame may carry (bounds decoder allocation from
/// a corrupted count; far above any real batch — shard queues cap batches
/// orders of magnitude earlier).
inline constexpr std::uint32_t kMaxExamplesPerFrame = 1 << 20;

/// One domain's wire codec; see the file comment.
struct PayloadCodec {
  /// The DomainTraits tag this codec transports ("video").
  std::string domain;
  /// Appends `example`'s payload encoding to `out`. The example must hold
  /// this codec's payload type (a foreign example throws CheckError —
  /// senders validate domains before encoding).
  std::function<void(const serve::AnyExample&, WireWriter&)> encode;
  /// Decodes one example from `in`, appending it to `out`. Returns false
  /// on malformed bytes, leaving `out`'s earlier entries intact.
  std::function<bool(WireReader&, std::vector<serve::AnyExample>&)> decode;
  /// Fewest bytes one encoded example occupies. DecodeBatch rejects a
  /// count the payload cannot hold at this size before reserving for it;
  /// 0 bounds the count by kMaxExamplesPerFrame alone.
  std::size_t min_example_bytes = 0;
};

/// Encodes `batch` (all of `codec`'s domain) as a DATA payload.
std::vector<std::uint8_t> EncodeBatch(
    const PayloadCodec& codec, std::span<const serve::AnyExample> batch);

/// Decodes a DATA payload of exactly `count` examples. Typed errors:
/// kMalformedPayload (bad bytes, trailing garbage, or a count above
/// kMaxExamplesPerFrame or more than the payload can hold).
serve::Result<std::vector<serve::AnyExample>> DecodeBatch(
    const PayloadCodec& codec, std::span<const std::uint8_t> payload,
    std::uint32_t count);

/// Installs the shipped codecs (video, av, ecg, tvnews) on their registered
/// domains. serve::MakeDefaultDomainRegistry calls this; custom registries
/// hosting a subset call it after registering their domains (codecs for
/// unregistered domains are skipped).
void RegisterDefaultCodecs(serve::DomainRegistry& registry);

}  // namespace omg::net
