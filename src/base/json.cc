#include "json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace smtsim
{

// ----------------------------------------------------------------
// Value accessors
// ----------------------------------------------------------------

void
Json::set(std::string_view key, Json value)
{
    if (type_ != Type::Object)
        throw JsonParseError("set() on non-object");
    for (auto &kv : obj_) {
        if (kv.first == key) {
            kv.second = std::move(value);
            return;
        }
    }
    obj_.emplace_back(std::string(key), std::move(value));
}

const Json *
Json::find(std::string_view key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &kv : obj_) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *j = find(key);
    if (!j)
        throw JsonParseError("missing member \"" + key + "\"");
    return *j;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    static const std::vector<std::pair<std::string, Json>> empty;
    return type_ == Type::Object ? obj_ : empty;
}

void
Json::push(Json value)
{
    if (type_ != Type::Array)
        throw JsonParseError("push() on non-array");
    arr_.push_back(std::move(value));
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return arr_.size();
    if (type_ == Type::Object)
        return obj_.size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    if (type_ != Type::Array || i >= arr_.size())
        throw JsonParseError("array index out of range");
    return arr_[i];
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        throw JsonParseError("not a bool");
    return bool_;
}

bool
Json::getInt(std::int64_t &out) const
{
    if (type_ == Type::Int && !uint_) {
        out = int_;
        return true;
    }
    // Both bounds are exact doubles; NaN fails the range test.
    if (type_ == Type::Double && dbl_ >= -0x1p63 && dbl_ < 0x1p63 &&
        std::trunc(dbl_) == dbl_) {
        out = static_cast<std::int64_t>(dbl_);
        return true;
    }
    return false;
}

bool
Json::getU64(std::uint64_t &out) const
{
    if (type_ == Type::Int && (uint_ || int_ >= 0)) {
        out = static_cast<std::uint64_t>(int_);
        return true;
    }
    if (type_ == Type::Double && dbl_ >= 0.0 && dbl_ < 0x1p64 &&
        std::trunc(dbl_) == dbl_) {
        out = static_cast<std::uint64_t>(dbl_);
        return true;
    }
    return false;
}

std::int64_t
Json::asInt() const
{
    std::int64_t v = 0;
    if (!getInt(v))
        throw JsonParseError(isNumber() ? "not an int64 integer"
                                        : "not a number");
    return v;
}

std::uint64_t
Json::asU64() const
{
    std::uint64_t v = 0;
    if (!getU64(v))
        throw JsonParseError(isNumber() ? "not a uint64 integer"
                                        : "not a number");
    return v;
}

double
Json::asDouble() const
{
    if (type_ == Type::Int)
        return static_cast<double>(int_);
    if (type_ == Type::Double)
        return dbl_;
    throw JsonParseError("not a number");
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        throw JsonParseError("not a string");
    return str_;
}

// ----------------------------------------------------------------
// Writer
// ----------------------------------------------------------------

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

void
newlineIndent(std::ostream &os, int indent, int depth)
{
    if (indent <= 0)
        return;
    os << '\n';
    for (int i = 0; i < indent * depth; ++i)
        os << ' ';
}

} // namespace

void
Json::writeImpl(std::ostream &os, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        os << "null";
        break;
      case Type::Bool:
        os << (bool_ ? "true" : "false");
        break;
      case Type::Int:
        if (uint_)
            os << static_cast<std::uint64_t>(int_);
        else
            os << int_;
        break;
      case Type::Double: {
        if (!std::isfinite(dbl_)) {
            os << "null";   // JSON has no inf/nan
            break;
        }
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", dbl_);
        os << buf;
        break;
      }
      case Type::String:
        os << '"' << jsonEscape(str_) << '"';
        break;
      case Type::Array: {
        os << '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                os << ',';
            newlineIndent(os, indent, depth + 1);
            arr_[i].writeImpl(os, indent, depth + 1);
        }
        if (!arr_.empty())
            newlineIndent(os, indent, depth);
        os << ']';
        break;
      }
      case Type::Object: {
        os << '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                os << ',';
            newlineIndent(os, indent, depth + 1);
            os << '"' << jsonEscape(obj_[i].first) << "\":";
            if (indent > 0)
                os << ' ';
            obj_[i].second.writeImpl(os, indent, depth + 1);
        }
        if (!obj_.empty())
            newlineIndent(os, indent, depth);
        os << '}';
        break;
      }
    }
}

void
Json::write(std::ostream &os, int indent) const
{
    writeImpl(os, indent, 0);
}

std::string
Json::dump(int indent) const
{
    std::ostringstream oss;
    write(oss, indent);
    return oss.str();
}

// ----------------------------------------------------------------
// Parser (recursive descent)
// ----------------------------------------------------------------

namespace
{

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json
    document()
    {
        Json v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw JsonParseError("JSON parse error at offset " +
                                 std::to_string(pos_) + ": " + what,
                             pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    Json
    value()
    {
        skipWs();
        const char c = peek();
        switch (c) {
          case '{': return objectValue();
          case '[': return arrayValue();
          case '"': return Json(stringValue());
          case 't':
            if (consumeLiteral("true"))
                return Json(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return Json(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return Json();
            fail("bad literal");
          default:
            return numberValue();
        }
    }

    /**
     * Bound container recursion: deeply nested input must fail with
     * a diagnostic, not exhaust the host stack.
     */
    struct DepthGuard
    {
        explicit DepthGuard(Parser &p) : parser(p)
        {
            if (++parser.depth_ > Json::kMaxParseDepth)
                parser.fail("nesting deeper than " +
                            std::to_string(Json::kMaxParseDepth) +
                            " levels");
        }
        ~DepthGuard() { --parser.depth_; }
        Parser &parser;
    };

    Json
    objectValue()
    {
        const DepthGuard guard(*this);
        expect('{');
        Json obj = Json::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipWs();
            std::string key = stringValue();
            skipWs();
            expect(':');
            obj.set(key, value());
            skipWs();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return obj;
            }
            fail("expected ',' or '}'");
        }
    }

    Json
    arrayValue()
    {
        const DepthGuard guard(*this);
        expect('[');
        Json arr = Json::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(value());
            skipWs();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return arr;
            }
            fail("expected ',' or ']'");
        }
    }

    std::string
    stringValue()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            c = text_[pos_++];
            switch (c) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // UTF-8 encode (surrogate pairs not recombined;
                // cache records only ever escape control chars).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 |
                                             ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                fail("bad escape character");
            }
        }
    }

    Json
    numberValue()
    {
        const std::size_t start = pos_;
        bool is_double = false;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '.' || text_[pos_] == 'e' ||
             text_[pos_] == 'E')) {
            is_double = true;
            while (pos_ < text_.size() &&
                   (std::isdigit(static_cast<unsigned char>(
                        text_[pos_])) ||
                    text_[pos_] == '.' || text_[pos_] == 'e' ||
                    text_[pos_] == 'E' || text_[pos_] == '+' ||
                    text_[pos_] == '-'))
                ++pos_;
        }
        if (pos_ == start)
            fail("expected a value");
        const std::string tok(text_.substr(start, pos_ - start));
        try {
            if (is_double)
                return Json(std::stod(tok));
            return Json(static_cast<long long>(std::stoll(tok)));
        } catch (const std::exception &) {
        }
        // Past the int64 range: an unsigned 64-bit integer if it
        // fits, else a double.
        try {
            if (!is_double && tok[0] != '-')
                return Json(std::stoull(tok));
        } catch (const std::exception &) {
        }
        try {
            return Json(std::stod(tok));
        } catch (const std::exception &) {
            fail("bad number \"" + tok + "\"");
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

Json
Json::parse(std::string_view text)
{
    return Parser(text).document();
}

} // namespace smtsim
