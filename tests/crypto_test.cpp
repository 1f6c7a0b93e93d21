// Known-answer tests for CRC-32, SHA-256 (FIPS 180-4) and HMAC-SHA256
// (RFC 4231) — the primitives behind frame integrity and the discovery
// service's admission handshake.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/sha256.hpp"

namespace amuse {
namespace {

// Bit-at-a-time reference CRC-32 (reflected IEEE polynomial, pre- and
// post-inversion), deliberately independent of the table-driven code.
std::uint32_t reference_crc32(BytesView data) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320U & (0U - (c & 1U)));
  }
  return c ^ 0xFFFFFFFFU;
}

// Deterministic pseudo-random bytes (xorshift32), so failures reproduce.
Bytes pseudo_random_bytes(std::size_t n) {
  Bytes out(n);
  std::uint32_t x = 0x9E3779B9U;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::uint8_t>(x);
  }
  return out;
}

// Every CRC-32 path this CPU can run: the dispatching entry point and each
// kernel behind it, so both stay held to the reference whichever one the
// dispatch picks.
struct CrcPath {
  const char* name;
  std::uint32_t (*update)(std::uint32_t, BytesView);
};

std::vector<CrcPath> crc_paths() {
  std::vector<CrcPath> paths = {{"crc32_update", &crc32_update},
                                {"table", &detail::crc32_update_table}};
  if (detail::crc32_has_clmul()) {
    paths.push_back({"clmul", &detail::crc32_update_clmul});
  }
  return paths;
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(to_bytes("")), 0x00000000U);
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926U);  // classic check value
  EXPECT_EQ(crc32(to_bytes("The quick brown fox jumps over the lazy dog")),
            0x414FA339U);
  for (const char* s :
       {"", "123456789", "The quick brown fox jumps over the lazy dog"}) {
    EXPECT_EQ(reference_crc32(to_bytes(s)), crc32(to_bytes(s))) << s;
  }
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data = to_bytes("split into several pieces for incremental hashing");
  std::uint32_t whole = crc32(data);
  std::uint32_t crc = 0;
  // Note: IEEE CRC-32 with pre/post-inversion is not naively resumable via
  // crc32_update(previous, …) across chunk boundaries unless the update
  // function handles the inversions — ours does.
  crc = crc32_update(crc, BytesView(data.data(), 10));
  crc = crc32_update(crc, BytesView(data.data() + 10, data.size() - 10));
  EXPECT_EQ(crc, whole);
}

TEST(Crc32, DetectsSingleBitFlips) {
  Bytes data = to_bytes("event bus payload");
  std::uint32_t good = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    Bytes corrupt = data;
    corrupt[i] ^= 0x01;
    EXPECT_NE(crc32(corrupt), good) << "flip at byte " << i;
  }
}

// Every length 0..4096 at every start alignment 0..7: covers the 8-byte
// main loop, each 0..7-byte tail and misaligned loads.
TEST(Crc32, MatchesBitwiseReferenceAtAllLengthsAndAlignments) {
  const Bytes data = pseudo_random_bytes(4096 + 8);
  const std::vector<CrcPath> paths = crc_paths();
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      BytesView view(data.data() + align, len);
      std::uint32_t want = reference_crc32(view);
      ASSERT_EQ(crc32(view), want) << "align=" << align << " len=" << len;
      for (const CrcPath& path : paths) {
        ASSERT_EQ(path.update(0, view), want)
            << path.name << " align=" << align << " len=" << len;
      }
    }
  }
}

TEST(Crc32, UpdateSplitAtEveryOffsetMatchesOneShot) {
  const Bytes data = pseudo_random_bytes(1024);
  const std::uint32_t whole = reference_crc32(data);
  for (const CrcPath& path : crc_paths()) {
    for (std::size_t split = 0; split <= data.size(); ++split) {
      std::uint32_t crc = path.update(0, BytesView(data.data(), split));
      crc = path.update(
          crc, BytesView(data.data() + split, data.size() - split));
      ASSERT_EQ(crc, whole) << path.name << " split=" << split;
    }
  }
}

std::string hex_digest(const Digest256& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(hex_digest(Sha256::hash(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_digest(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_digest(Sha256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_digest(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalSplitInvariance) {
  Bytes msg = to_bytes("the block boundary at 64 bytes is where bugs hide, "
                       "so split across it in several ways");
  Digest256 expect = Sha256::hash(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(BytesView(msg.data(), split));
    h.update(BytesView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(hex_digest(h.finish()), hex_digest(expect)) << split;
  }
}

TEST(Sha256, PaddingEdgeLengths) {
  // Messages of length 55, 56, 63, 64 exercise every padding branch; the
  // digests of 'x' repeated are known answers.
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
      {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
  };
  for (const auto& [len, want] : cases) {
    Bytes msg(len, 'x');
    EXPECT_EQ(hex_digest(Sha256::hash(msg)), want) << "len " << len;
    Sha256 h;
    for (std::size_t i = 0; i < len; ++i) {
      h.update(BytesView(msg.data() + i, 1));
    }
    EXPECT_EQ(hex_digest(h.finish()), want) << "len " << len;
  }
}

// RFC 4231 test case 1.
TEST(HmacSha256, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Digest256 mac = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(hex_digest(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacSha256, Rfc4231Case2) {
  Digest256 mac = hmac_sha256(to_bytes("Jefe"),
                              to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(hex_digest(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(HmacSha256, Rfc4231LongKey) {
  Bytes key(131, 0xaa);
  Digest256 mac = hmac_sha256(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex_digest(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// Empty key and empty message: both views may be null pointers, which
// must not reach memcpy (UBSan flags it) and must not change the result.
TEST(HmacSha256, EmptyKeyAndMessage) {
  EXPECT_EQ(hex_digest(hmac_sha256(BytesView{}, BytesView{})),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
  EXPECT_EQ(hex_digest(hmac_sha256(Bytes{}, Bytes{})),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

TEST(HmacSha256, DifferentKeysDiffer) {
  Bytes msg = to_bytes("admission challenge nonce");
  EXPECT_NE(hex_digest(hmac_sha256(to_bytes("key-a"), msg)),
            hex_digest(hmac_sha256(to_bytes("key-b"), msg)));
}

// RFC 2104 written out over one-shot hashes, independent of HmacSha256's
// cached key states.
Digest256 reference_hmac(BytesView key, BytesView message) {
  Bytes k(key.begin(), key.end());
  if (k.size() > 64) {
    Digest256 kd = Sha256::hash(k);
    k.assign(kd.begin(), kd.end());
  }
  k.resize(64, 0);
  Bytes inner;
  for (std::uint8_t b : k) inner.push_back(b ^ 0x36);
  inner.insert(inner.end(), message.begin(), message.end());
  Digest256 inner_digest = Sha256::hash(inner);
  Bytes outer;
  for (std::uint8_t b : k) outer.push_back(b ^ 0x5c);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return Sha256::hash(outer);
}

// One keyed object, reused for every message, gives the MAC of a fresh
// key schedule: across the key lengths that take each branch (empty,
// short, one block, hashed) and message lengths over the padding edges.
TEST(HmacSha256, KeyedObjectEqualsOneShot) {
  Bytes bytes = pseudo_random_bytes(200 + 131);
  for (std::size_t key_len : {0u, 1u, 64u, 65u, 131u}) {
    BytesView key(bytes.data() + 200, key_len);
    const HmacSha256 keyed(key);
    for (std::size_t len = 0; len <= 200; ++len) {
      BytesView msg(bytes.data(), len);
      Digest256 want = reference_hmac(key, msg);
      ASSERT_EQ(hex_digest(keyed.mac(msg)), hex_digest(want))
          << "key " << key_len << " message " << len;
      ASSERT_EQ(hex_digest(hmac_sha256(key, msg)), hex_digest(want))
          << "key " << key_len << " message " << len;
      // Fed in two pieces through begin() / finish().
      Sha256 inner = keyed.begin();
      inner.update(msg.subspan(0, len / 3));
      inner.update(msg.subspan(len / 3));
      ASSERT_EQ(hex_digest(keyed.finish(inner)), hex_digest(want))
          << "key " << key_len << " message " << len;
    }
  }
}

TEST(DigestEqual, ComparesCorrectly) {
  Digest256 a = Sha256::hash(to_bytes("x"));
  Digest256 b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
}

}  // namespace
}  // namespace amuse
