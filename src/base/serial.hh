/**
 * @file
 * The byte codec of every binary format — SMTCKPT1/SMTMCKP1
 * checkpoints (core/checkpoint.cc, machine/manycore.cc), STMP
 * program images (asmr/program.cc) and the SMTEVT1 event stream
 * (obs/sinks.cc) — and the binary archives that run a field list or
 * transfer function (base/fields.hh) in either direction.
 *
 * Everything is little-endian and fixed-width, so a stream written
 * on one host restores on any other. Readers throw
 * std::runtime_error on truncation, a bad magic/version or a failed
 * restore-time check rather than silently misparsing, and no length
 * field allocates memory before the input has supplied the bytes it
 * claims: a run grows element by element, raw bytes chunk by chunk,
 * as they are read.
 */

#ifndef SMTSIM_BASE_SERIAL_HH
#define SMTSIM_BASE_SERIAL_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/fields.hh"

namespace smtsim
{

/** Little-endian fixed-width writer over a std::ostream. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::ostream &os) : os_(os) {}

    /** Any integral type at its own width; bool as one byte; double
     *  as its IEEE bits. */
    template <class T>
    void
    put(T v)
    {
        if constexpr (std::is_same_v<T, double>) {
            put(std::bit_cast<std::uint64_t>(v));
        } else if constexpr (std::is_same_v<T, bool>) {
            put(static_cast<std::uint8_t>(v ? 1 : 0));
        } else {
            static_assert(std::is_integral_v<T>);
            using U = std::make_unsigned_t<T>;
            const U u = static_cast<U>(v);
            char buf[sizeof(T)];
            for (std::size_t i = 0; i < sizeof(T); ++i)
                buf[i] = static_cast<char>(u >> (8 * i));
            os_.write(buf, sizeof(T));
        }
    }

    void
    bytes(const void *data, std::size_t len)
    {
        os_.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(len));
    }

    bool ok() const { return os_.good(); }

  private:
    std::ostream &os_;
};

/** Little-endian fixed-width reader; throws on truncated input. */
class ByteReader
{
  public:
    /** @p what prefixes every error ("checkpoint: truncated
     *  stream"). */
    ByteReader(std::istream &is, std::string what)
        : is_(is), what_(std::move(what))
    {}

    template <class T>
    T
    get()
    {
        if constexpr (std::is_same_v<T, double>) {
            return std::bit_cast<double>(get<std::uint64_t>());
        } else if constexpr (std::is_same_v<T, bool>) {
            return get<std::uint8_t>() != 0;
        } else {
            static_assert(std::is_integral_v<T>);
            unsigned char buf[sizeof(T)];
            bytes(buf, sizeof(T));
            std::make_unsigned_t<T> u = 0;
            for (std::size_t i = sizeof(T); i-- > 0;)
                u = static_cast<decltype(u)>((u << 8) | buf[i]);
            return static_cast<T>(u);
        }
    }

    /** Fill a caller-sized buffer. */
    void
    bytes(void *data, std::size_t len)
    {
        is_.read(static_cast<char *>(data),
                 static_cast<std::streamsize>(len));
        if (is_.gcount() != static_cast<std::streamsize>(len))
            fail("truncated stream");
    }

    /**
     * Append a run of @p n bytes to @p out. The buffer grows one
     * chunk at a time as the input supplies it, so a corrupt length
     * costs at most one chunk before the truncation is reported.
     */
    template <class Buf>
    void
    append(Buf &out, std::uint64_t n)
    {
        constexpr std::uint64_t kChunk = 64 * 1024;
        while (n > 0) {
            const std::size_t k =
                static_cast<std::size_t>(std::min(n, kChunk));
            const std::size_t at = out.size();
            out.resize(at + k);
            bytes(out.data() + at, k);
            n -= k;
        }
    }

    /** True once the underlying stream is exhausted. */
    bool atEof() { return is_.peek() == std::istream::traits_type::eof(); }

    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error(what_ + ": " + why);
    }

  private:
    std::istream &is_;
    std::string what_;
};

/** Runs of single bytes move as raw byte runs. */
template <class T>
inline constexpr bool kIsByteRun =
    std::is_same_v<T, std::string> ||
    std::is_same_v<T, std::vector<std::uint8_t>>;

/**
 * Writing side of the binary archive. Field encodings by type:
 * integers at their own width, bool as one byte, double as its
 * bits; std::array as its elements; std::optional as a presence
 * byte plus the value (or a zero value); std::vector/std::deque,
 * std::string and std::map as a u32 count plus the elements;
 * Wire/FixedSize as base/fields.hh says; any other struct through
 * its field list.
 */
class SaveArchive
{
  public:
    static constexpr bool kLoading = false;

    explicit SaveArchive(std::ostream &os) : w_(os) {}

    template <class T>
    void operator()(const char *, const T &v) { save(v); }

    template <class W, class E>
    void operator()(const char *, Wire<W, E> f) { w_.put(W(f.v)); }

    template <class V>
    void
    operator()(const char *, FixedSize<V> f)
    {
        for (const auto &e : f.v)
            save(e);
    }

    /** Variable-length run: u32 count, then @p each per element. */
    template <class C, class Each>
    void
    list(const char *, C &c, Each each)
    {
        w_.put(static_cast<std::uint32_t>(c.size()));
        for (auto &e : c)
            each(e);
    }

    /** Run whose length the live object fixes: u32 count (a reader
     *  requires it to match), then @p each per element in place. */
    template <class C, class Each>
    void shape(const char *name, C &c, Each each) { list(name, c, each); }

    /** A nested blob: u64 byte count, then the bytes. */
    void
    blob(const char *, const std::string &bytes)
    {
        w_.put(static_cast<std::uint64_t>(bytes.size()));
        w_.bytes(bytes.data(), bytes.size());
    }

    /** Magic numbers, versions and fingerprints. */
    template <class T>
    void expect(T v, const char *) { w_.put(v); }

    /** Restore-time check; a writer has nothing to check. */
    void check(bool, const char *) {}

    bool ok() const { return w_.ok(); }

  private:
    template <class T>
    void
    save(const T &v)
    {
        if constexpr (std::is_arithmetic_v<T>) {
            w_.put(v);
        } else if constexpr (kIsArray<T>) {
            for (const auto &e : v)
                save(e);
        } else if constexpr (kIsOptional<T>) {
            w_.put(v.has_value());
            save(v.value_or(typename T::value_type{}));
        } else if constexpr (kIsByteRun<T>) {
            w_.put(static_cast<std::uint32_t>(v.size()));
            w_.bytes(v.data(), v.size());
        } else if constexpr (kIsMap<T>) {
            w_.put(static_cast<std::uint32_t>(v.size()));
            for (const auto &[key, value] : v) {
                save(key);
                save(value);
            }
        } else if constexpr (kIsSeq<T>) {
            list("", v, [this](const auto &e) { save(e); });
        } else {
            T::fields(*this, v);
        }
    }

    ByteWriter w_;
};

/** Reading side of the binary archive; the encodings of
 *  SaveArchive. Errors are std::runtime_error("<what>: ..."). */
class LoadArchive
{
  public:
    static constexpr bool kLoading = true;

    LoadArchive(std::istream &is, std::string what)
        : r_(is, std::move(what))
    {}

    template <class T>
    void operator()(const char *, T &v) { load(v); }

    template <class W, class E>
    void
    operator()(const char *name, Wire<W, E> f)
    {
        const W x = r_.get<W>();
        if (x > static_cast<W>(f.last))
            r_.fail(std::string("bad ") + name);
        f.v = static_cast<E>(x);
    }

    template <class V>
    void
    operator()(const char *, FixedSize<V> f)
    {
        for (auto &e : f.v)
            load(e);
    }

    template <class C, class Each>
    void
    list(const char *, C &c, Each each)
    {
        const std::uint32_t n = r_.get<std::uint32_t>();
        c.clear();
        for (std::uint32_t i = 0; i < n; ++i) {
            c.emplace_back();
            each(c.back());
        }
    }

    template <class C, class Each>
    void
    shape(const char *name, C &c, Each each)
    {
        if (r_.get<std::uint32_t>() != c.size())
            r_.fail(std::string(name) + " count mismatch");
        for (auto &e : c)
            each(e);
    }

    void
    blob(const char *, std::string &bytes)
    {
        bytes.clear();
        r_.append(bytes, r_.get<std::uint64_t>());
    }

    template <class T>
    void
    expect(T want, const char *what)
    {
        const T got = r_.get<T>();
        if (got != want) {
            r_.fail(std::string("bad ") + what + " (got " +
                    std::to_string(got) + ", want " +
                    std::to_string(want) + ")");
        }
    }

    void check(bool ok, const char *what) { if (!ok) r_.fail(what); }

    bool atEof() { return r_.atEof(); }

  private:
    template <class T>
    void
    load(T &v)
    {
        if constexpr (std::is_arithmetic_v<T>) {
            v = r_.get<T>();
        } else if constexpr (kIsArray<T>) {
            for (auto &e : v)
                load(e);
        } else if constexpr (kIsOptional<T>) {
            const bool has = r_.get<bool>();
            typename T::value_type x{};
            load(x);
            v = has ? T(x) : std::nullopt;
        } else if constexpr (kIsByteRun<T>) {
            v.clear();
            r_.append(v, r_.get<std::uint32_t>());
        } else if constexpr (kIsMap<T>) {
            v.clear();
            for (std::uint32_t n = r_.get<std::uint32_t>(); n > 0;
                 --n) {
                typename T::key_type key{};
                load(key);
                load(v[std::move(key)]);
            }
        } else if constexpr (kIsSeq<T>) {
            list("", v, [this](auto &e) { load(e); });
        } else {
            T::fields(*this, v);
        }
    }

    ByteReader r_;
};

} // namespace smtsim

#endif // SMTSIM_BASE_SERIAL_HH
