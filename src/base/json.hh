/**
 * @file
 * Minimal JSON value type: enough of RFC 8259 to write and read the
 * experiment-engine's result records (`.smtsim-cache/`), the
 * ResultSet exports, and `smtsim-run --json`. Objects preserve
 * insertion order so serialization is deterministic.
 */

#ifndef SMTSIM_BASE_JSON_HH
#define SMTSIM_BASE_JSON_HH

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace smtsim
{

/**
 * Thrown by Json::parse on malformed input and by the typed
 * accessors on shape mismatches. For parse failures offset() is the
 * byte position the parser rejected (<= input size) and what()
 * spells it out; accessor errors carry offset() == npos.
 */
class JsonParseError : public std::runtime_error
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    explicit JsonParseError(const std::string &what,
                            std::size_t offset = npos)
        : std::runtime_error(what), offset_(offset)
    {}

    /** Byte offset of a parse failure; npos for accessor errors. */
    std::size_t offset() const { return offset_; }

  private:
    std::size_t offset_;
};

class Json
{
  public:
    enum class Type { Null, Bool, Int, Double, String, Array, Object };

    Json() : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(int v) : type_(Type::Int), int_(v) {}
    Json(long v) : type_(Type::Int), int_(v) {}
    Json(long long v) : type_(Type::Int), int_(v) {}
    Json(unsigned v) : type_(Type::Int), int_(v) {}
    Json(unsigned long v)
        : type_(Type::Int), uint_(v > kInt64Max),
          int_(static_cast<std::int64_t>(v)) {}
    Json(unsigned long long v)
        : type_(Type::Int), uint_(v > kInt64Max),
          int_(static_cast<std::int64_t>(v)) {}
    Json(double v) : type_(Type::Double), dbl_(v) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    static Json object() { Json j; j.type_ = Type::Object; return j; }
    static Json array() { Json j; j.type_ = Type::Array; return j; }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isNumber() const
    {
        return type_ == Type::Int || type_ == Type::Double;
    }

    // -- object ---------------------------------------------------
    /** Insert or overwrite a member (value must be an Object). */
    void set(std::string_view key, Json value);
    /** Member lookup; nullptr when absent (or not an Object). */
    const Json *find(std::string_view key) const;
    /** Member lookup that throws JsonParseError when absent. */
    const Json &at(const std::string &key) const;

    /** Object members in insertion order; empty for non-objects. */
    const std::vector<std::pair<std::string, Json>> &members() const;

    // -- array ----------------------------------------------------
    void push(Json value);
    std::size_t size() const;
    const Json &at(std::size_t i) const;

    // -- scalars --------------------------------------------------
    bool asBool() const;
    /** Exact integer value; throws unless this is a number with no
     *  fractional part inside the result type's range. */
    std::int64_t asInt() const;
    std::uint64_t asU64() const;
    /** Non-throwing asInt()/asU64(): false where they would throw. */
    bool getInt(std::int64_t &out) const;
    bool getU64(std::uint64_t &out) const;
    double asDouble() const;
    const std::string &asString() const;

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;
    void write(std::ostream &os, int indent = 0) const;

    /**
     * Parse one JSON document. Malformed, truncated or overly
     * nested (> kMaxParseDepth) input throws JsonParseError with
     * the failing byte offset — parsing never crashes, whatever the
     * bytes (tests/test_json.cc fuzzes this contract).
     */
    static Json parse(std::string_view text);

    /** Container-nesting bound enforced by parse(). */
    static constexpr int kMaxParseDepth = 192;

  private:
    static constexpr unsigned long long kInt64Max = 0x7fffffffffffffffull;

    void writeImpl(std::ostream &os, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    /** int_ holds the bits of an unsigned value above INT64_MAX. */
    bool uint_ = false;
    std::int64_t int_ = 0;
    double dbl_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/** JSON string escaping (quotes not included). */
std::string jsonEscape(std::string_view s);

} // namespace smtsim

#endif // SMTSIM_BASE_JSON_HH
