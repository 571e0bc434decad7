/**
 * @file
 * JSON archives for field lists (base/fields.hh): toJson() writes a
 * struct as one object with its members in list order, fromJson()
 * reads it back. A reader requires every listed member, rejects
 * members the list does not name, and rejects a number that does
 * not fit its field — out of range, negative for an unsigned field,
 * or not integral for an integer one — with a JsonParseError that
 * names the member.
 */

#ifndef SMTSIM_BASE_JSON_FIELDS_HH
#define SMTSIM_BASE_JSON_FIELDS_HH

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "base/fields.hh"
#include "base/json.hh"
#include "base/logging.hh"

namespace smtsim
{

namespace json_detail
{

[[noreturn]] inline void
bad(const char *what, const std::string &problem)
{
    throw JsonParseError(std::string(what) + ": " + problem);
}

} // namespace json_detail

template <class T>
Json toJson(const T &v);

/** Writing side: sets one object's members. */
class JsonOut
{
  public:
    static constexpr bool kLoading = false;

    Json &obj;

    template <class T>
    void operator()(const char *name, const T &v) { obj.set(name, toJson(v)); }

    template <class V>
    void operator()(const char *name, FixedSize<V> f) { (*this)(name, f.v); }

    template <class E, std::size_t N>
    void
    operator()(const char *name, Named<E, N> f)
    {
        obj.set(name, Json(f.names[static_cast<std::size_t>(f.v)]));
    }
};

/** JSON for a scalar, string, sequence or field-list struct. */
template <class T>
Json
toJson(const T &v)
{
    if constexpr (std::is_arithmetic_v<T> ||
                  std::is_same_v<T, std::string>) {
        return Json(v);
    } else if constexpr (kIsSeq<T> || kIsArray<T>) {
        Json arr = Json::array();
        for (const auto &e : v)
            arr.push(toJson(e));
        return arr;
    } else {
        Json obj = Json::object();
        JsonOut out{obj};
        T::fields(out, v);
        return obj;
    }
}

template <class T>
void fromJson(const Json &j, T &out, const char *what);

/**
 * Reading side: looks the members of one object up by name and
 * records them, so rejectUnknown() can refuse the members nobody
 * read. Hand-written readers use it directly for members a field
 * list cannot express (optional ones, engine-dependent ones).
 */
class JsonIn
{
  public:
    static constexpr bool kLoading = true;

    JsonIn(const Json &obj, const char *what) : obj_(obj), what_(what)
    {
        if (obj.type() != Json::Type::Object)
            json_detail::bad(what, "expected a JSON object");
    }

    template <class T>
    void
    operator()(const char *name, T &v)
    {
        fromJson(member(name), v, name);
    }

    template <class V>
    void operator()(const char *name, FixedSize<V> f) { (*this)(name, f.v); }

    template <class E, std::size_t N>
    void
    operator()(const char *name, Named<E, N> f)
    {
        const Json &m = member(name);
        if (m.type() == Json::Type::String) {
            for (std::size_t i = 0; i < N; ++i) {
                if (m.asString() == f.names[i]) {
                    f.v = static_cast<E>(i);
                    return;
                }
            }
        }
        std::string choices;
        for (std::size_t i = 0; i < N; ++i)
            choices += std::string(i ? " or \"" : "\"") + f.names[i] +
                       "\"";
        json_detail::bad(name, "must be " + choices);
    }

    /** Read @p name into @p v when present; absent keeps @p v. */
    template <class T>
    void
    optional(const char *name, T &v)
    {
        if (const Json *m = find(name))
            fromJson(*m, v, name);
    }

    /** Member @p name, or nullptr when absent. */
    const Json *
    find(const char *name)
    {
        const Json *m = obj_.find(name);
        if (m != nullptr) {
            SMTSIM_ASSERT(seen_ < names_.size(),
                          "JsonIn reads at most 32 members");
            names_[seen_++] = name;
        }
        return m;
    }

    /** Member @p name; throws when absent. */
    const Json &
    member(const char *name)
    {
        const Json *m = find(name);
        if (m == nullptr)
            json_detail::bad(what_, std::string("missing member \"") +
                                        name + "\"");
        return *m;
    }

    /** Reject a member nothing read. */
    void
    rejectUnknown() const
    {
        if (seen_ == obj_.size())
            return;
        for (const auto &kv : obj_.members()) {
            bool listed = false;
            for (std::size_t i = 0; i < seen_; ++i)
                listed = listed || kv.first == names_[i];
            if (!listed)
                json_detail::bad(what_, "unknown member \"" +
                                            kv.first + "\"");
        }
    }

  private:
    const Json &obj_;
    const char *what_;
    /** Members read so far (no allocation per object read). */
    std::array<const char *, 32> names_{};
    std::size_t seen_ = 0;
};

/**
 * Read @p out from @p j. @p what names the value in diagnostics: the
 * member name, or the document for a top-level struct.
 * @throws JsonParseError on a shape or range mismatch.
 */
template <class T>
void
fromJson(const Json &j, T &out, const char *what)
{
    using json_detail::bad;
    if constexpr (std::is_same_v<T, bool>) {
        if (j.type() != Json::Type::Bool)
            bad(what, "expected true or false, got " + j.dump());
        out = j.asBool();
    } else if constexpr (std::is_integral_v<T>) {
        using Lim = std::numeric_limits<T>;
        bool ok = false;
        if constexpr (std::is_signed_v<T>) {
            std::int64_t v = 0;
            ok = j.getInt(v) && std::in_range<T>(v);
            out = static_cast<T>(v);
        } else {
            std::uint64_t v = 0;
            ok = j.getU64(v) && std::in_range<T>(v);
            out = static_cast<T>(v);
        }
        if (!ok) {
            bad(what, "expected an integer in [" +
                          std::to_string(Lim::min()) + ", " +
                          std::to_string(Lim::max()) + "], got " +
                          j.dump());
        }
    } else if constexpr (std::is_floating_point_v<T>) {
        if (!j.isNumber())
            bad(what, "expected a number, got " + j.dump());
        out = j.asDouble();
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (j.type() != Json::Type::String)
            bad(what, "expected a string, got " + j.dump());
        out = j.asString();
    } else if constexpr (kIsSeq<T> || kIsArray<T>) {
        if (j.type() != Json::Type::Array)
            bad(what, "expected an array");
        if constexpr (kIsArray<T>) {
            if (j.size() != out.size())
                bad(what, "expected " + std::to_string(out.size()) +
                              " elements, got " +
                              std::to_string(j.size()));
            for (std::size_t i = 0; i < out.size(); ++i)
                fromJson(j.at(i), out[i], what);
        } else {
            out.clear();
            if constexpr (requires { out.reserve(0); })
                out.reserve(j.size());  // parsed elements, not a claim
            for (std::size_t i = 0; i < j.size(); ++i) {
                out.emplace_back();
                fromJson(j.at(i), out.back(), what);
            }
        }
    } else {
        JsonIn in(j, what);
        T::fields(in, out);
        in.rejectUnknown();
    }
}

} // namespace smtsim

#endif // SMTSIM_BASE_JSON_FIELDS_HH
