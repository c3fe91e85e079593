// Fixture: the clean shapes. Blocking I/O happens outside the lock scope,
// and the one sanctioned in-scope block is a CondVar wait that names the
// held guard — the wait releases that lock for its duration.
namespace fix {

sync::Mutex g_mu{"serve/admission"};

struct Queue {
  sync::CondVar cv;
  int depth DARNET_GUARDED_BY(g_mu);
};

Queue g_queue;

int drain_socket(int fd) {
  char buf[16];
  return static_cast<int>(::recv(fd, buf, sizeof(buf), 0));
}

int wait_for_work() {
  sync::UniqueLock lock(g_mu);
  g_queue.cv.wait(lock, [] { return g_queue.depth > 0; });
  return g_queue.depth;
}

int locked_then_read(int fd) {
  {
    sync::Lock lock(g_mu);
    g_queue.depth = 0;
  }
  return drain_socket(fd);
}

}  // namespace fix
