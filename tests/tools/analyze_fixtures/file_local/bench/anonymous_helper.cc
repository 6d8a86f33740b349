// Fixture for tools/analyze (never compiled): the same file-local helper,
// given internal linkage by an anonymous namespace instead of `static`.
namespace {

void Set(int key, int value) {
  JsonValue doc;
  if (key != value) Recorder().Dump(&doc);
}

}  // namespace

void RunOtherBench() { Set(1, 2); }
