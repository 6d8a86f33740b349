// Fixture for tools/analyze (never compiled): the one `Set` with external
// linkage, defined apart from its caller as in the real tree, so the
// caller's file has no same-named candidate of its own.
class JsonValue {
 public:
  void Set(int key, int value) { value_ = key + value; }

 private:
  int value_ = 0;
};
