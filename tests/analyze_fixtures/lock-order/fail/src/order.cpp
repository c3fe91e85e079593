// Fixture: acquires the documented serve hierarchy in reverse order.
// serve/apply (rank 1) is held while serve/admission (rank 0) is taken,
// which inverts the admission -> apply hierarchy.
namespace fix {

sync::Mutex g_admission{"serve/admission"};
sync::Mutex g_apply{"serve/apply"};

int inverted_path() {
  sync::Lock apply(g_apply);
  sync::Lock admission(g_admission);
  return 1;
}

}  // namespace fix
