// Fixture: acquires the documented serve hierarchy in the documented
// direction (serve/admission before serve/apply), which is clean.
namespace fix {

sync::Mutex g_admission{"serve/admission"};
sync::Mutex g_apply{"serve/apply"};

int ordered_path() {
  sync::Lock admission(g_admission);
  sync::Lock apply(g_apply);
  return 1;
}

}  // namespace fix
