from setuptools import Extension, setup

# The compiled kernel is optional: without a C compiler or the Python
# headers the build warns and the package installs with the pure-Python
# kernel, which returns the same results more slowly.
setup(ext_modules=[Extension("mixdim._cover_c", ["src/mixdim/_cover_c.c"], optional=True)])
