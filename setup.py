import os

from setuptools import Extension, setup

# The compiled closure kernel is optional: without a C compiler (or with
# HORNKEYS_PURE=1) the package installs with the pure-Python twin only.
ext_modules = []
if os.environ.get("HORNKEYS_PURE") != "1":
    ext_modules = [
        Extension("hornkeys._fastclosure", ["src/hornkeys/_fastclosure.c"], optional=True)
    ]

setup(ext_modules=ext_modules)
