/**
 * @file
 * Minimal JSON value type, parser and serializer.
 *
 * Used for the driver's checkpoint files (see core/checkpoint.hh).
 * Deliberately tiny: objects are ordered maps (deterministic dumps),
 * numbers are doubles printed with 17 significant digits so they
 * round-trip IEEE-754 exactly, and 64-bit integers that do not fit a
 * double (RNG state, seeds) are stored as hex strings by the caller.
 * No external dependency.
 */

#ifndef UNICO_COMMON_JSON_HH
#define UNICO_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace unico::common {

/** A JSON document node. */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double v) : type_(Type::Number), number_(v) {}
    Json(int v) : type_(Type::Number), number_(v) {}
    Json(std::int64_t v)
        : type_(Type::Number), number_(static_cast<double>(v))
    {}
    Json(std::size_t v)
        : type_(Type::Number), number_(static_cast<double>(v))
    {}
    Json(const char *s) : type_(Type::String), string_(s) {}
    Json(std::string s) : type_(Type::String), string_(std::move(s)) {}

    /** An empty array / object literal. */
    static Json array();
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; throw std::runtime_error on type mismatch. */
    bool asBool() const;
    double asDouble() const;
    std::int64_t asInt() const;
    const std::string &asString() const;

    /** Array helpers. */
    std::size_t size() const;
    const Json &at(std::size_t i) const;
    void push(Json v);

    /** Object helpers. */
    bool has(const std::string &key) const;
    /** Object member; throws when absent (const) or inserts (non-const). */
    const Json &at(const std::string &key) const;
    Json &operator[](const std::string &key);
    const std::map<std::string, Json> &members() const;

    /** Serialize; @p indent > 0 pretty-prints. */
    std::string dump(int indent = 0) const;

    /** Parse a document; throws std::runtime_error on malformed input. */
    static Json parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::map<std::string, Json> object_;
};

/** Hex encoding for 64-bit values that do not fit a JSON double. */
std::string hexU64(std::uint64_t v);
std::uint64_t parseHexU64(const std::string &s);

} // namespace unico::common

#endif // UNICO_COMMON_JSON_HH
