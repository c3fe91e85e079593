// Fixture: a raw string holding a lone '"' must not hide the real
// std::thread on the next line.
const char* kBanner = R"(a " b)";
std::thread t;
