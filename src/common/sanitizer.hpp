// AddressSanitizer manual poisoning, compiled out of other builds.
//
// DHT_ASAN_POISON(p, n) marks [p, p + n) unreadable: any instrumented load
// or store there aborts with a use-after-poison report.
// DHT_ASAN_UNPOISON(p, n) makes it readable again.  ASan tracks memory in
// 8-byte granules and a granule is either readable from its start or not
// at all, so poisoning never reaches past [p, p + n) but may leave its
// unaligned edges readable.
#pragma once

#if defined(__SANITIZE_ADDRESS__)
#define DHT_HAS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DHT_HAS_ASAN 1
#endif
#endif

#if defined(DHT_HAS_ASAN)
#include <sanitizer/asan_interface.h>
#define DHT_ASAN_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define DHT_ASAN_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define DHT_ASAN_POISON(p, n) ((void)(p), (void)(n))
#define DHT_ASAN_UNPOISON(p, n) ((void)(p), (void)(n))
#endif
