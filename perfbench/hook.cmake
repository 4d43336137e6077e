# Injected into the swtnas configure step as CMAKE_PROJECT_INCLUDE (see
# run.py): it runs right after the root project() call and adds the
# benchmark directory to the repository's own build, so the benchmark links
# the libraries exactly as the repository compiles them.  Link targets are
# resolved at generate time, after the root CMakeLists.txt defined them.
if(NOT TARGET swtnas_perfbench)
  add_subdirectory("${CMAKE_CURRENT_LIST_DIR}" "${CMAKE_BINARY_DIR}/perfbench")
endif()
