# Passed as -DCMAKE_PROJECT_INCLUDE=<this file> when configuring the
# repository's top-level CMakeLists.txt.  It runs right after the
# repository's project() call and defers including the benchmark's build
# file until the top level has finished, so the benchmark targets get the
# repository's own compile options and link against its library targets
# without any repository build file naming the benchmark.
set(NITRO_E2EBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${NITRO_E2EBENCH_DIR}/CMakeLists.txt")
