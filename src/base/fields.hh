/**
 * @file
 * Field lists: the one description of a serialized struct.
 *
 * A struct that is written anywhere — checkpoint, program image,
 * event stream, JSON — declares its members once, in order, in a
 * static member
 *
 *     template <class Ar, class Self>
 *     static void
 *     fields(Ar &ar, Self &s)
 *     {
 *         ar("cycles", s.cycles);
 *         ar("finished", s.finished);
 *     }
 *
 * and every format derives its writer and reader from that list by
 * running it over an archive: SaveArchive/LoadArchive
 * (base/serial.hh) for the binary formats, toJson()/fromJson()
 * (base/json_fields.hh) for JSON. Self is `const T` when writing and
 * `T` when reading, so one function serves both directions. The
 * byte layout and the JSON member order are the list's order; the
 * names are the JSON member names and the diagnostics' field names.
 * A transfer function with restore-time checks follows the same
 * pattern, testing Ar::kLoading and calling ar.check().
 */

#ifndef SMTSIM_BASE_FIELDS_HH
#define SMTSIM_BASE_FIELDS_HH

#include <array>
#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <type_traits>
#include <vector>

namespace smtsim
{

/** Enum (or narrowed integer) carried as a W in the binary
 *  formats; a reader rejects values above @c last. */
template <class W, class E>
struct Wire
{
    E &v;
    E last;
};

template <class W, class E>
Wire<W, E>
wire(E &v, std::remove_const_t<E> last)
{
    return {v, last};
}

/** Sequence whose length the configuration fixes: the binary
 *  formats store its elements without a count and a reader fills
 *  the existing elements; JSON stores a plain array. */
template <class V>
struct FixedSize
{
    V &v;
};

/** Enum stored in JSON as one of @c names (enumerator order). */
template <class E, std::size_t N>
struct Named
{
    E &v;
    const std::array<const char *, N> &names;
};

// Container kinds the archives encode by type.
template <class T>
inline constexpr bool kIsArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;
template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <class T>
inline constexpr bool kIsMap = false;
template <class K, class V, class C>
inline constexpr bool kIsMap<std::map<K, V, C>> = true;
template <class T>
inline constexpr bool kIsSeq = false;
template <class T>
inline constexpr bool kIsSeq<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsSeq<std::deque<T>> = true;

} // namespace smtsim

#endif // SMTSIM_BASE_FIELDS_HH
